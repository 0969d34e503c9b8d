"""The commands behind each golden text file in `tests/golden/`.

`GOLDENS` maps every golden text file to the commands whose standard
output, concatenated in order, is that file, each with the exit code it
must return; every command must leave standard error empty.  Paths are
relative to the repository root.  `tests/test_cli.py` runs the table
in-process through `cli.run`.  Run as a script, this module runs it through
the `operad-forge` on PATH and exits 1 if any golden differs:

    pip install . && python tests/golden_commands.py
"""

import pathlib
import shlex
import subprocess
import sys

from operad_forge.operad_calculus import PRESET_NAMES, regular_presets

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _instance(name):
    return f"tests/golden/instances/{name}.json"


# The operads of ass, leib, poiss and com that each instance file satisfies;
# `instance check` against any other is a refuted check and exits 1.
SATISFIES = {
    "abelian_2d": "ass leib poiss com",
    "comm_assoc_2d": "ass poiss com",
    "heisenberg": "ass leib poiss",
    "leib_tilde_3d": "ass leib poiss",
    "leibniz_3d": "leib",
    "lie_nonabelian_2d": "leib poiss",
    "poisson_heisenberg": "ass leib poiss",
    "poisson_unital_4d": "ass poiss",
    "zinbiel_3d": "",
}
_VERIFY = {
    "verify_theorem1_all.txt": "verify theorem1 --all-presets",
    "verify_bracket_lie.txt": "verify bracket-lie",
    "verify_twisted_poisson.txt": "verify twisted-poisson",
    "verify_negative_leib_zinb.txt": "verify negative --p leib --q zinb",
}
# One run of each subcommand, with its exit code: leibniz_3d is no Zinbiel
# algebra, so that check is refuted.
_JSON = [("report paper-tables", 0), *((v, 0) for v in _VERIFY.values()),
         ("companion leib", 0),
         ("show leib --rank --isotypic --orbits --dual --tilde", 0),
         (f"instance check {_instance('leibniz_3d')} --operad zinb", 1),
         ("search counterexample --p leib --q zinb --max-dim 3", 0)]


def _each(template, names):
    """`template` filled with each name, as argv lists that exit 0."""
    return [(template.format(name).split(), 0) for name in names]


GOLDENS = {
    "paper_tables.txt": [("report paper-tables".split(), 0)],
    **{golden: [(line.split(), 0)] for golden, line in _VERIFY.items()},
    "companion_regular.txt": _each("companion {}", regular_presets()),
    # comm3 has no stored presentation, so its tilde depends on the seed
    "tilde_presets.txt": _each(
        "tilde {}", [*PRESET_NAMES, "comm3 --seed 1", "comm3 --seed 2"]),
    "show_dual_tilde.txt": _each("show {} --dual --tilde", PRESET_NAMES),
    "show_flags.txt": _each("show {} --rank --isotypic --orbits",
                            PRESET_NAMES),
    "cli_json.txt": [(f"{line} --json".split(), code) for line, code in _JSON],
    "instance_check.txt": [
        (f"instance check {_instance(name)} --operad {op}".split(),
         int(op not in ops.split()))
        for name, ops in SATISFIES.items()
        for op in ("ass", "leib", "poiss", "com")
    ] + _each("instance tensor {}", [  # pairs with nonzero structure constants
        f"{_instance('comm_assoc_2d')} {_instance('comm_assoc_2d')}",
        f"{_instance('leibniz_3d')} {_instance('leib_tilde_3d')}",
        f"{_instance('poisson_heisenberg')} {_instance('comm_assoc_2d')} "
        "--twist poisson",
    ]),
    # the default budget of 200: searches that find no witness (ass x ass
    # is closed, so its search is exhaustive) and searches that find one,
    # up to the largest instance dimension
    "search_counterexample.txt": [
        (f"search counterexample {line}".split(), code) for line, code in [
            ("--p leib --q zinb --max-dim 2", 1),
            ("--p ass --q ass --max-dim 2", 1),
            ("--p poiss --q poiss --max-dim 3", 0),
            ("--p ass --q ass --max-dim 4", 1),
            ("--p leib --q zinb --max-dim 4", 0)]],
}


def _first_line(text):
    return text.split("\n", 1)[0]


def mismatch(golden, run):
    """Run the commands of one golden through `run(argv) -> (code, stdout,
    stderr)` from the repository root, each output checked against the next
    slice of the file.  Returns None when all match, else a one-line message
    naming the golden file and the first command that departs from it."""
    text = (GOLDEN / golden).read_text(encoding="utf-8")
    pos = 0
    for argv, code in GOLDENS[golden]:
        command = shlex.join(["operad-forge", *argv])
        got, out, err = run(argv)
        if (got, err) != (code, ""):
            last = err.strip().rpartition("\n")[2]
            return (f"{golden}: `{command}` exited {got} (want {code}), "
                    f"stderr ends {last!r}")
        want = text[pos:pos + len(out)]
        if out != want:
            at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b),
                      len(want))
            line = text.count("\n", 0, pos + at) + 1
            return (f"{golden}: `{command}` departs from line {line}: got "
                    f"{_first_line(out[at:])!r}, golden has "
                    f"{_first_line(want[at:])!r}")
        pos += len(out)
    if pos != len(text):
        line = text.count("\n", 0, pos) + 1
        return f"{golden}: the commands stop before line {line}"
    return None


def _installed(argv):
    done = subprocess.run(["operad-forge", *argv], capture_output=True,
                          encoding="utf-8", cwd=ROOT)
    return done.returncode, done.stdout, done.stderr


def main():
    failures = 0
    for golden in GOLDENS:
        message = mismatch(golden, _installed)
        failures += message is not None
        print(message or f"ok {golden}")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
