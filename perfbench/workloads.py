"""The three benchmark workloads: job generators, job runners and checks.

Each workload is a closed loop with one client: the next job starts when
the previous one has finished.  Jobs come in rounds, and every round has
the same mix of job kinds, so runs made with different seeds do the same
kind of work and differ only in the generated parameters.  A run starts
another round only while it expects the round to end within its time.

Generators use only the standard library and `random.Random` seeded with
the workload name and the seed; the program sees only their output.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "paper_tables.txt"
OUT_DIR = ROOT / ".perfbench"

VARS = ("x", "y", "z")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _rational(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.randint(1, 5))


def _signed_sum(terms) -> str:
    """Relation text for (coefficient, monomial) pairs."""
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{m}" for c, m in terms)
    return text[2:] if text.startswith("+") else text


def _relation_text(rng: random.Random) -> str:
    """A sparse regular relation: 2-4 distinct monomials, rational weights."""
    monomials = [f"({a}*{b})*{c}" for a, b, c in permutations(VARS)]
    monomials += [f"{a}*({b}*{c})" for a, b, c in permutations(VARS)]
    return _signed_sum((_rational(rng), m)
                       for m in rng.sample(monomials, rng.randint(2, 4)))


def _comb_text(rng: random.Random) -> str:
    return _signed_sum((_rational(rng), f"m{i}") for i in (1, 2, 3))


def _family_param(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 7))


class PaperTables:
    """`report paper-tables` in a fresh interpreter, as a user runs it.

    One report builds every preset, dual and tilde the paper tabulates, with
    much repetition, so memoization, the elimination kernel and the action
    all show here.  Every job runs the default seed 0 and is compared with
    the golden file, which holds the output for that seed.  Other seeds can
    change the output: the tilde stability probe derives presentations from
    the seed, and at seed 107838 it prints `11 11 9` for g3ass where seed 0
    prints `11 11 11`.  So the workload seed does not change these jobs.
    """

    name = "paper_tables"
    in_process = False
    ARGV = ("report", "paper-tables")

    def __init__(self, traced: bool):
        self.traced = traced
        self.golden = GOLDEN.read_text()
        self.trace_files: list[Path] = []

    def rounds(self, seed: int):
        while True:
            yield [self.ARGV]

    def run_job(self, argv):
        if self.traced:
            path = OUT_DIR / f"paper_tables-job{len(self.trace_files)}.bin"
            path.unlink(missing_ok=True)
            self.trace_files.append(path)
            cmd = [sys.executable, str(Path(__file__).with_name(
                "traced_cli.py")), str(path), *argv]
        else:
            cmd = [sys.executable, "-m", "operad_forge.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=170)
        return proc.returncode, proc.stdout

    def check(self, argv, out) -> bool:
        code, stdout = out
        return code == 0 and stdout == self.golden


class OperadSweep:
    """Library use on a stream of distinct operads generated from the seed.

    A round holds six operads: JSON-style definitions with one and with two
    sparse regular relations, `family_ab` and `family_t` at random rational
    parameters, and one commutative and one anticommutative module.  Each
    job runs rank, dual, tilde, theorem 1 and (for the regular class, the
    only one it is defined on) the minimal companion.  No operad is built
    twice on purpose, so caches gain far less here than on paper_tables.
    They still gain something: a job computes the tilde and the rank more
    than once, and each symmetric class has only four invariant modules.
    """

    name = "operad_sweep"
    in_process = True

    def __init__(self, traced: bool):
        del traced

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            jobs = []
            for n_gens in (1, 2):
                definition = {
                    "name": f"sweep{len(jobs)}",
                    "symmetry": "regular",
                    "relations": [_relation_text(rng) for _ in range(n_gens)],
                }
                jobs.append(("definition", json.dumps(definition)))
            a, b = _family_param(rng), _family_param(rng)
            while (a, b) == (1, 1):
                b = _family_param(rng)
            jobs.append(("family_ab", (a, b)))
            t = _family_param(rng)
            while t == 1:
                t = _family_param(rng)
            jobs.append(("family_t", (t,)))
            for symmetry in ("comm", "anticomm"):
                definition = {"name": symmetry, "symmetry": symmetry,
                              "relations": [_comb_text(rng)]}
                jobs.append(("definition", json.dumps(definition)))
            yield [(kind, arg, rng.randrange(1000)) for kind, arg in jobs]

    def run_job(self, spec):
        from operad_forge.operad_calculus import (
            REGULAR, dual, operad_from_definition, preset, rank, tilde)
        from operad_forge.tensor_closure import (
            minimal_companion, theorem1_check)

        kind, arg, seed = spec
        if kind == "definition":
            p = operad_from_definition(json.loads(arg))
        else:
            p = preset(kind, *arg)
        rank(p.relations)
        d = dual(p)
        t = tilde(p, seed=seed)
        holds, _ = theorem1_check(p, seed=seed)
        mc = minimal_companion(p) if p.symmetry is REGULAR else None
        return p, d, t, holds, mc

    def check(self, spec, out) -> bool:
        from operad_forge.operad_calculus import dual, operads_equal

        p, d, t, holds, mc = out
        inside = mc is None or mc.space.is_subspace_of(t.relations.space)
        return operads_equal(dual(d), p) and holds and inside


class InstanceSearch:
    """`search_counterexample` at a small fixed budget over kinds of pair.

    One job searches every kind once, each with its own search seed:
    ass x ass is symbolically closed, so no witness exists and the search
    is exhaustive; leib x zinb and poiss x poiss leak, so the search may
    find a witness and stop early; each pair runs at max_dim 2 and 3.  A
    job of one search would give a median that falls between kinds whose
    costs differ tenfold.  The CLI's default budget of 200 takes about
    504 s on leib x zinb at max_dim 2 and finds no witness, so the budget
    here is 1 random candidate per side after the fixture catalog.
    """

    name = "instance_search"
    in_process = True
    PAIRS = (("ass", "ass"), ("leib", "zinb"), ("poiss", "poiss"))
    MAX_DIMS = (2, 3)
    BUDGET = 1

    def __init__(self, traced: bool):
        from operad_forge.operad_calculus import preset
        from operad_forge.tensor_closure import MixedProduct, closure_holds

        del traced
        self.operads = {}
        self.closed = {}
        for p, q in self.PAIRS:
            rp, rq = preset(p).relations, preset(q).relations
            self.operads[p], self.operads[q] = rp, rq
            self.closed[p, q], _ = closure_holds(
                rp, rq, MixedProduct.identity(), rp.basis_elements())

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            yield [tuple((p, q, max_dim, rng.randrange(10**6), self.BUDGET)
                         for p, q in self.PAIRS for max_dim in self.MAX_DIMS)]

    def run_job(self, searches):
        from operad_forge.algebra_instances import search_counterexample

        found = []
        for p, q, max_dim, seed, budget in searches:
            r_p = self.operads[p]
            found.append(search_counterexample(
                r_p, self.operads[q], r_p.basis_elements(), max_dim=max_dim,
                seed=seed, budget=budget))
        return found

    def check(self, searches, found) -> bool:
        return all(self._check_one(s, f) for s, f in zip(searches, found))

    def _check_one(self, search, found) -> bool:
        """Re-verify a witness; no witness may exist for a closed pair."""
        from operad_forge.algebra_instances import (
            check_relations, tensor_instance)
        from operad_forge.tensor_closure import MixedProduct

        p, q = search[0], search[1]
        if found is None:
            return True
        if self.closed[p, q]:
            return False
        r_p = self.operads[p]
        t = tensor_instance(found.left, found.right, MixedProduct.identity())
        triples = {v.triple for v in check_relations(t, r_p)}
        return (not check_relations(found.left, r_p)
                and not check_relations(found.right, self.operads[q])
                and found.violation.triple in triples)


WORKLOADS = {w.name: w for w in (PaperTables, OperadSweep, InstanceSearch)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("OPERAD_FORGE_SEED", None)
    return env
