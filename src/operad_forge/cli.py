"""Command-line front end: dual/tilde/rank computations, verification
sweeps, instance checks, and deterministic reference reports.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or parse
errors.  The environment variable OPERAD_FORGE_SEED overrides the default
seed (0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .algebra_instances import (
    AlgebraInstance,
    check_relations,
    search_counterexample,
    tensor_instance,
)
from .foundation import full_space, span
from .group_module import apply_idempotent
from .operad_calculus import (
    PRESET_NAMES,
    QuadraticOperad,
    RelationModule,
    dual,
    operad_from_definition,
    operads_equal,
    preset,
    presentation_of,
    rank,
    regular_presets,
    tilde,
)
from .relation_dsl import ParseError, format_group_vector, format_weight3
from .tensor_closure import (
    MixedProduct,
    bracket_is_lie,
    closure_holds,
    lift_closure,
    minimal_companion,
    twisted_poisson_check,
)
from .weight_spaces import ANTICOMMUTATIVE, COMMUTATIVE, REGULAR, act_vector

SCHEMA_VERSION = 1

@dataclass
class Section:
    label: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)


@dataclass
class Report:
    title: str
    sections: list[Section] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    verified: Optional[bool] = None

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "title": self.title,
            "sections": [
                {"label": s.label, "columns": s.columns, "rows": s.rows}
                for s in self.sections
            ],
            "provenance": self.provenance,
        }
        if self.verified is not None:
            out["verified"] = self.verified
        return out

    def to_text(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        for s in self.sections:
            lines.append("")
            lines.append(f"[{s.label}]")
            table = [s.columns] + s.rows
            widths = [
                max(len(str(row[i])) for row in table)
                for i in range(len(s.columns))
            ]
            for n, row in enumerate(table):
                lines.append(
                    "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                    .rstrip()
                )
                if n == 0:
                    lines.append("  ".join("-" * w for w in widths))
        if self.provenance:
            lines.append("")
            lines.append("[provenance]")
            for k in sorted(self.provenance):
                lines.append(f"{k}: {self.provenance[k]}")
        if self.verified is not None:
            lines.append("")
            lines.append(f"verified: {str(self.verified).lower()}")
        return "\n".join(lines) + "\n"


def _emit(report: Report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.to_text())
    if report.verified is False:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Input loading.


def _load_operad(token: str) -> QuadraticOperad:
    if token not in PRESET_NAMES and (
            os.path.exists(token) or token.endswith(".json")):
        with open(token, encoding="utf-8") as fh:
            data = json.load(fh)
        return operad_from_definition(data)
    return preset(token)


def _load_instance(path: str) -> AlgebraInstance:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return AlgebraInstance.from_json(data, name=os.path.basename(path))


# ---------------------------------------------------------------------------
# Sections shared by several commands.


def _relation_rows(rel: RelationModule) -> list[list[str]]:
    return [[format_weight3(x)] for x in rel.basis_elements()]


def _operad_section(p: QuadraticOperad) -> Section:
    s = Section("operad", ["field", "value"])
    s.rows.append(["name", p.name or "(unnamed)"])
    s.rows.append(["symmetry", p.symmetry.value])
    s.rows.append(["relation dimension", str(p.relations.dim)])
    s.rows.append(["rank", str(rank(p.relations))])
    return s


def _presentation_section(p: QuadraticOperad, seed: int) -> Section:
    s = Section("presentation", ["v (left part)", "w (right part)"])
    for v, w in presentation_of(p, seed=seed):
        s.rows.append([format_group_vector(v), format_group_vector(w)])
    return s


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_show(args) -> int:
    p = _load_operad(args.operad)
    seed = args.seed
    report = Report(f"operad {p.name or args.operad}")
    report.provenance = {"seed": seed, "input": args.operad}
    report.sections.append(_operad_section(p))
    rel = Section("relations", ["basis relation"])
    rel.rows = _relation_rows(p.relations)
    report.sections.append(rel)
    report.sections.append(_presentation_section(p, seed))
    if args.rank:
        s = Section("rank", ["module", "rank"])
        s.rows.append(["relations", str(rank(p.relations))])
        report.sections.append(s)
    if args.isotypic:
        prof = p.relations.isotypic()
        s = Section("isotypic", ["trivial", "sign", "standard"])
        s.rows.append([str(prof.m_triv), str(prof.m_sgn), str(prof.m_std)])
        report.sections.append(s)
    if args.orbits:
        s = Section("orbits", ["basis relation", "orbit dimension"])
        from .operad_calculus import orbit_span

        for x in p.relations.basis_elements():
            s.rows.append(
                [format_weight3(x), str(orbit_span([x]).dim)]
            )
        report.sections.append(s)
    if args.dual or args.tilde:
        d = dual(p)
    if args.dual:
        s = Section("dual", ["basis relation"])
        s.rows = _relation_rows(d.relations)
        report.sections.append(s)
        cmp_sec = Section("dual comparison", ["field", "value"])
        cmp_sec.rows.append(["dual symmetry", d.symmetry.value])
        cmp_sec.rows.append(["dual dimension", str(d.relations.dim)])
        same = operads_equal(d, p)
        cmp_sec.rows.append(["equals relations", str(same).lower()])
        report.sections.append(cmp_sec)
    if args.tilde:
        t = tilde(p, seed=seed)
        s = Section("tilde", ["basis relation"])
        s.rows = _relation_rows(t.relations)
        report.sections.append(s)
        cmp_sec = Section("tilde comparison", ["field", "value"])
        cmp_sec.rows.append(["tilde symmetry", t.symmetry.value])
        cmp_sec.rows.append(["tilde dimension", str(t.relations.dim)])
        same = operads_equal(d, t)
        cmp_sec.rows.append(["tilde equals dual", str(same).lower()])
        report.sections.append(cmp_sec)
    return _emit(report, args.json)


def _theorem1_names() -> list[str]:
    return regular_presets() + ["lie", "com"]


def _cmd_verify(args) -> int:
    seed = args.seed
    if args.what == "theorem1":
        names = [args.preset] if args.preset else _theorem1_names()
        report = Report("theorem1 verification")
        s = Section("closure", ["preset", "tilde dimension", "closed"])
        ok_all = True
        for name in names:
            p = _load_operad(name)
            t = tilde(p, seed=seed)
            ok, _ = lift_closure(p, t.relations)
            s.rows.append([name, str(t.relations.dim), str(ok).lower()])
            ok_all = ok_all and ok
        report.sections.append(s)
        report.verified = ok_all
    elif args.what == "bracket-lie":
        names = [args.preset] if args.preset else [
            f"g{i}ass" for i in range(1, 7)
        ]
        report = Report("bracket verification")
        s = Section("bracket", ["preset", "dual dimension", "lie"])
        ok_all = True
        for name in names:
            p = _load_operad(name)
            d = dual(p)
            ok = bracket_is_lie(p.relations, d.relations)
            s.rows.append([name, str(d.relations.dim), str(ok).lower()])
            ok_all = ok_all and ok
        report.sections.append(s)
        report.verified = ok_all
    elif args.what == "twisted-poisson":
        report = Report("twisted tensor product verification")
        ok, _ = twisted_poisson_check()
        poiss = preset("poiss")
        lit_ok, _ = closure_holds(
            poiss.relations, poiss.relations,
            MixedProduct.poisson_twist_literal(),
            poiss.relations.basis_elements(),
        )
        s = Section("twist", ["product", "closed"])
        s.rows.append(["corrected twist (3, 1, 1, -1)", str(ok).lower()])
        s.rows.append(
            ["sign-flipped control (3, -1, -1, 1)", str(lit_ok).lower()]
        )
        report.sections.append(s)
        report.verified = ok and not lit_ok
    elif args.what == "negative":
        p = _load_operad(args.p)
        q = _load_operad(args.q)
        # Lifts decide closure only against a comm --q (see lift_closure).
        if p.symmetry is not REGULAR and q.symmetry is not COMMUTATIVE:
            raise ValueError(
                f"--p of class {p.symmetry.value} is checked only against "
                f"--q of class comm, got {q.symmetry.value}")
        basis = p.relations.basis_elements()
        ok, certs = lift_closure(p, q.relations)
        report = Report("non-closure verification")
        s = Section(
            "residuals", ["target relation", "absorbed", "certificate"]
        )
        for x, cert in zip(basis, certs):
            s.rows.append(
                [
                    format_weight3(x),
                    str(cert.holds).lower(),
                    cert.describe(),
                ]
            )
        report.sections.append(s)
        report.provenance = {"p": args.p, "q": args.q}
        # Verified means the non-closure claim holds: some relation leaks.
        report.verified = not ok
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.what)
    report.provenance.setdefault("seed", seed)
    return _emit(report, args.json)


def _cmd_companion(args) -> int:
    p = _load_operad(args.operad)
    if p.symmetry is not REGULAR:
        raise ValueError("companion is computed for regular presets only")
    seed = args.seed
    comp = minimal_companion(p)
    t = tilde(p, seed=seed)
    contained = comp.space.is_subspace_of(t.relations.space)
    ok, _ = closure_holds(
        p.relations, comp, MixedProduct.identity(),
        p.relations.basis_elements(),
    )
    report = Report(f"minimal companion of {p.name or args.operad}")
    s = Section("companion relations", ["basis relation"])
    s.rows = _relation_rows(comp)
    report.sections.append(s)
    facts = Section("facts", ["field", "value"])
    facts.rows.append(["companion dimension", str(comp.dim)])
    facts.rows.append(["tilde dimension", str(t.relations.dim)])
    facts.rows.append(["contained in tilde", str(contained).lower()])
    facts.rows.append(["closure with companion", str(ok).lower()])
    report.sections.append(facts)
    report.provenance = {"seed": seed}
    report.verified = contained and ok
    return _emit(report, args.json)


def _cmd_instance(args) -> int:
    if args.what == "check":
        alg = _load_instance(args.file)
        p = _load_operad(args.operad)
        report = Report(f"instance check against {args.operad}")
        s = Section("violations", ["description"])
        try:
            bad = check_relations(alg, p.relations)
        except ValueError as exc:
            s.rows.append([str(exc)])
            bad = [exc]
        else:
            for v in bad[:20]:
                s.rows.append([str(v)])
        report.sections.append(s)
        facts = Section("facts", ["field", "value"])
        facts.rows.append(["instance dimension", str(alg.dim)])
        facts.rows.append(["violations", str(len(bad))])
        report.sections.append(facts)
        report.verified = not bad
        return _emit(report, args.json)
    if args.what == "tensor":
        a = _load_instance(args.file_a)
        b = _load_instance(args.file_b)
        product = (
            MixedProduct.poisson_twist()
            if args.twist == "poisson"
            else MixedProduct.identity()
        )
        t = tensor_instance(a, b, product)
        print(json.dumps(t.to_json(), indent=2, sort_keys=True))
        return 0
    raise AssertionError(args.what)  # pragma: no cover


def _cmd_search(args) -> int:
    p = _load_operad(args.p)
    q = _load_operad(args.q)
    targets = p.relations.basis_elements()
    found = search_counterexample(
        p.relations, q.relations, targets,
        max_dim=args.max_dim, seed=args.seed,
    )
    report = Report("counterexample search")
    report.provenance = {
        "p": args.p, "q": args.q, "max_dim": args.max_dim,
        "seed": args.seed,
    }
    s = Section("result", ["field", "value"])
    if found is None:
        s.rows.append(["witness", "none found within budget"])
        report.sections.append(s)
        report.verified = False
    else:
        s.rows.append(["left instance", found.left.name or "random"])
        s.rows.append(["left structure",
                       json.dumps(found.left.to_json()["structure"])])
        s.rows.append(["right instance", found.right.name or "random"])
        s.rows.append(["right structure",
                       json.dumps(found.right.to_json()["structure"])])
        s.rows.append(["violating triple", str(found.violation.triple)])
        report.sections.append(s)
        report.verified = True
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# Reference report.


_FAMILY_SWEEP = (
    ("family_ab", 3, 0),
    ("family_ab", 0, 3),
    ("family_ab", 0, 0),
    ("family_ab", 2, 2),
    ("family_ab", 5, -1),
    ("family_ab", Fraction(1, 2), Fraction(1, 3)),
    ("family_t", 0),
    ("family_t", 2),
    ("family_t", -3),
    ("table_row_5",),
    ("table_row_6",),
)


def _family_sweep_section(seed: int) -> Section:
    s = Section(
        "lie-admissible family sweep",
        ["entry", "dim", "subgroup variant", "tilde = dual",
         "tilde = dual(lieadm)"],
    )
    comm3 = preset("comm3").relations.space
    entries = [preset(f"g{i}ass") for i in range(1, 7)]
    # Filled from g6 down, so the first variant with a given module wins.
    variant = {p.relations.space: p.name for p in reversed(entries)}
    entries += [preset(*spec) for spec in _FAMILY_SWEEP]
    for p in entries:
        t = tilde(p, seed=seed)
        d = dual(p)
        s.rows.append(
            [
                p.name,
                str(p.relations.dim),
                variant.get(p.relations.space, "-"),
                str(t.relations.space == d.relations.space).lower(),
                str(t.relations.space == comm3).lower(),
            ]
        )
    return s


def _known_symmetric_label(p: QuadraticOperad,
                           known: list[QuadraticOperad]) -> str:
    for q in known:
        if operads_equal(p, q):
            return q.name
    if p.relations.dim == p.symmetry.dim:
        return "full module"
    if p.relations.dim == 0:
        return "free"
    return "-"


def _symmetric_enumeration_section(seed: int) -> Section:
    s = Section(
        "symmetric-class submodule enumeration",
        ["class", "pieces", "dim", "known", "tilde dim",
         "dual class", "dual dim", "tilde = dual"],
    )
    known = [preset("lie"), preset("com")]
    for symmetry in (COMMUTATIVE, ANTICOMMUTATIVE):
        units = full_space(symmetry.dim).basis
        action = partial(act_vector, symmetry)
        pieces = []
        for name, kind in (("trivial", "triv"), ("sign", "sgn"),
                           ("standard", "std")):
            sp = span([apply_idempotent(kind, action, u) for u in units],
                      symmetry.dim)
            if sp.dim > 0:
                pieces.append((name, sp))
        for mask in range(2 ** len(pieces)):
            chosen = [pieces[i] for i in range(len(pieces))
                      if mask & (1 << i)]
            space = span([b for _, sp in chosen for b in sp.basis],
                         symmetry.dim)
            label = "+".join(name for name, _ in chosen) or "zero"
            module = RelationModule(symmetry, space)
            p = QuadraticOperad(symmetry, module)
            t = tilde(p, seed=seed)
            d = dual(p)
            s.rows.append(
                [
                    symmetry.value,
                    label,
                    str(module.dim),
                    _known_symmetric_label(p, known),
                    str(t.relations.dim),
                    d.symmetry.value,
                    str(d.relations.dim),
                    (str(operads_equal(d, t)).lower()
                     if d.symmetry is t.symmetry else "n/a"),
                ]
            )
    return s


def _stability_section(seed: int) -> Section:
    """Compare tilde across several valid presentations of each module.

    tilde is defined from a presentation, not from the relation module
    alone; this probe reports (without asserting) how stable it is when
    the presentation is re-derived from fresh random generators.
    """
    s = Section(
        "tilde stability probe",
        ["preset", "stored tilde dim", "probe dims (seeds +1..+3)",
         "all equal stored"],
    )
    for name in ("g1ass", "g3ass", "g6ass", "leib", "zinb", "poiss"):
        p = preset(name)
        t0 = tilde(p, seed=seed)
        stripped = QuadraticOperad(p.symmetry, p.relations, None, p.name)
        dims = []
        same = True
        for k in (1, 2, 3):
            t = tilde(stripped, seed=seed + k)
            dims.append(str(t.relations.dim))
            same = same and t.relations.space == t0.relations.space
        s.rows.append(
            [name, str(t0.relations.dim), " ".join(dims),
             str(same).lower()]
        )
    return s


def _cmd_report(args) -> int:
    seed = args.seed
    report = Report("reference tables")
    report.provenance = {"seed": seed, "schema_version": SCHEMA_VERSION}

    s = Section(
        "subgroup variants",
        ["preset", "dim", "rank", "dual dim", "dual rank", "tilde = dual"],
    )
    for name in [f"g{i}ass" for i in range(1, 7)] + [
        f"g{i}p3ass" for i in range(1, 7)
    ]:
        p = preset(name)
        d = dual(p)
        t = tilde(p, seed=seed)
        s.rows.append(
            [
                name,
                str(p.relations.dim),
                str(rank(p.relations)),
                str(d.relations.dim),
                str(rank(d.relations)),
                str(t.relations.space == d.relations.space).lower(),
            ]
        )
    report.sections.append(s)

    s = Section("named operads", ["preset", "symmetry", "dim", "rank",
                                  "tilde symmetry", "tilde dim"])
    for name in ("comm3", "leib", "zinb", "poiss", "lie", "com"):
        p = preset(name)
        t = tilde(p, seed=seed)
        s.rows.append(
            [
                name,
                p.symmetry.value,
                str(p.relations.dim),
                str(rank(p.relations)),
                t.symmetry.value,
                str(t.relations.dim),
            ]
        )
    report.sections.append(s)

    report.sections.append(_family_sweep_section(seed))
    report.sections.append(_stability_section(seed))
    report.sections.append(_symmetric_enumeration_section(seed))
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# Argument parsing.


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one line."""

    def error(self, message):
        # argparse echoes unrecognized arguments as given, line breaks too.
        message = message.replace("\n", "\\n")
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=os.environ.get("OPERAD_FORGE_SEED", "0"),
        help="seed for presentation/search randomness "
        "(default: OPERAD_FORGE_SEED or 0)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser = _Parser(
        prog="operad-forge",
        description="Exact-arithmetic calculator for binary quadratic "
        "operads: orbit spans, ranks, Koszul duals, companion operads, "
        "and tensor-product closure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="display an operad",
                            parents=[common])
    p_show.add_argument("operad", help="preset name or definition file")
    p_show.add_argument("--dual", action="store_true")
    p_show.add_argument("--tilde", action="store_true")
    p_show.add_argument("--rank", action="store_true")
    p_show.add_argument("--orbits", action="store_true")
    p_show.add_argument("--isotypic", action="store_true")
    p_show.set_defaults(func=_cmd_show)

    p_tilde = sub.add_parser("tilde", help="display the companion operad",
                             parents=[common])
    p_tilde.add_argument("operad", help="preset name or definition file")
    p_tilde.set_defaults(func=_cmd_show, tilde=True, dual=False, rank=False,
                         orbits=False, isotypic=False)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    v_sub = p_verify.add_subparsers(dest="what", required=True)
    v_t1 = v_sub.add_parser("theorem1", parents=[common])
    group = v_t1.add_mutually_exclusive_group()
    group.add_argument("--preset",
                       help="check only this preset or definition file "
                       "(default: the regular presets, lie and com)")
    group.add_argument("--all-presets", action="store_true",
                       help="check the default set; the same as giving "
                       "no --preset")
    v_bl = v_sub.add_parser("bracket-lie", parents=[common])
    v_bl.add_argument("--preset")
    v_sub.add_parser("twisted-poisson", parents=[common])
    v_neg = v_sub.add_parser("negative", parents=[common])
    v_neg.add_argument("--p", required=True)
    v_neg.add_argument("--q", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_comp = sub.add_parser("companion", help="minimal companion module",
                            parents=[common])
    p_comp.add_argument("operad", help="preset name or definition file")
    p_comp.set_defaults(func=_cmd_companion)

    p_inst = sub.add_parser("instance", help="structure-constant instances")
    i_sub = p_inst.add_subparsers(dest="what", required=True)
    i_check = i_sub.add_parser("check", parents=[common])
    i_check.add_argument("file")
    i_check.add_argument("--operad", required=True)
    i_tensor = i_sub.add_parser("tensor", parents=[common])
    i_tensor.add_argument("file_a")
    i_tensor.add_argument("file_b")
    i_tensor.add_argument("--twist", choices=["poisson"])
    p_inst.set_defaults(func=_cmd_instance)

    p_search = sub.add_parser("search", help="search for counterexamples")
    s_sub = p_search.add_subparsers(dest="what", required=True)
    s_cx = s_sub.add_parser("counterexample", parents=[common])
    s_cx.add_argument("--p", required=True)
    s_cx.add_argument("--q", required=True)
    s_cx.add_argument("--max-dim", type=int, default=4)
    p_search.set_defaults(func=_cmd_search)

    p_report = sub.add_parser("report", help="reference tables")
    r_sub = p_report.add_subparsers(dest="what", required=True)
    r_sub.add_parser("paper-tables", parents=[common])
    p_report.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
