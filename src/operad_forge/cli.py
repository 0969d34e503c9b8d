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
    orbit_span,
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
from .weight_spaces import ANTICOMMUTATIVE, COMMUTATIVE, act_vector

SCHEMA_VERSION = 1

@dataclass
class Section:
    label: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add(self, *cells) -> None:
        """Append a row; a bool prints as true/false, anything else by str."""
        self.rows.append([str(c).lower() if isinstance(c, bool) else str(c)
                          for c in cells])


@dataclass
class Report:
    title: str
    sections: list[Section] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    verified: Optional[bool] = None

    def section(self, label: str, columns: list[str]) -> Section:
        s = Section(label, columns)
        self.sections.append(s)
        return s

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
                max(len(row[i]) for row in table)
                for i in range(len(s.columns))
            ]
            for n, row in enumerate(table):
                lines.append(
                    "  ".join(c.ljust(w) for c, w in zip(row, widths))
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


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None


def _load_operad(token: str) -> QuadraticOperad:
    if token not in PRESET_NAMES and (
            os.path.exists(token) or token.endswith(".json")):
        return operad_from_definition(_load_json(token))
    return preset(token)


def _load_instance(path: str) -> AlgebraInstance:
    return AlgebraInstance.from_json(_load_json(path),
                                     name=os.path.basename(path))


def _relations(report: Report, label: str, module: RelationModule) -> None:
    s = report.section(label, ["basis relation"])
    for x in module.basis_elements():
        s.add(format_weight3(x))


# The subgroup variants G_i-ass, i = 1..6.
_GI_ASS = [f"g{i}ass" for i in range(1, 7)]


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_show(args) -> int:
    p = _load_operad(args.operad)
    seed = args.seed
    report = Report(f"operad {p.name or args.operad}",
                    provenance={"seed": seed, "input": args.operad})
    s = report.section("operad", ["field", "value"])
    s.add("name", p.name or "(unnamed)")
    s.add("symmetry", p.symmetry.value)
    s.add("relation dimension", p.relations.dim)
    s.add("rank", rank(p.relations))
    _relations(report, "relations", p.relations)
    s = report.section("presentation", ["v (left part)", "w (right part)"])
    for v, w in presentation_of(p, seed=seed):
        s.add(format_group_vector(v), format_group_vector(w))
    if args.rank:
        report.section("rank", ["module", "rank"]).add(
            "relations", rank(p.relations))
    if args.isotypic:
        prof = p.relations.isotypic()
        report.section("isotypic", ["trivial", "sign", "standard"]).add(
            prof.m_triv, prof.m_sgn, prof.m_std)
    if args.orbits:
        s = report.section("orbits", ["basis relation", "orbit dimension"])
        for x in p.relations.basis_elements():
            s.add(format_weight3(x), orbit_span([x]).dim)
    if args.dual or args.tilde:
        d = dual(p)
    if args.dual:
        _relations(report, "dual", d.relations)
        s = report.section("dual comparison", ["field", "value"])
        s.add("dual symmetry", d.symmetry.value)
        s.add("dual dimension", d.relations.dim)
        s.add("equals relations", operads_equal(d, p))
    if args.tilde:
        t = tilde(p, seed=seed)
        _relations(report, "tilde", t.relations)
        s = report.section("tilde comparison", ["field", "value"])
        s.add("tilde symmetry", t.symmetry.value)
        s.add("tilde dimension", t.relations.dim)
        s.add("tilde equals dual", operads_equal(d, t))
    return _emit(report, args.json)


def _cmd_theorem1(args) -> int:
    names = [args.preset] if args.preset else regular_presets() + [
        "lie", "com"]
    report = Report("theorem1 verification", provenance={"seed": args.seed})
    s = report.section("closure", ["preset", "tilde dimension", "closed"])
    ok_all = True
    for name in names:
        p = _load_operad(name)
        t = tilde(p, seed=args.seed)
        ok, _ = lift_closure(p, t.relations)
        s.add(name, t.relations.dim, ok)
        ok_all = ok_all and ok
    report.verified = ok_all
    return _emit(report, args.json)


def _cmd_bracket_lie(args) -> int:
    names = [args.preset] if args.preset else _GI_ASS
    report = Report("bracket verification", provenance={"seed": args.seed})
    s = report.section("bracket", ["preset", "dual dimension", "lie"])
    ok_all = True
    for name in names:
        p = _load_operad(name)
        d = dual(p)
        ok = bracket_is_lie(p.relations, d.relations)
        s.add(name, d.relations.dim, ok)
        ok_all = ok_all and ok
    report.verified = ok_all
    return _emit(report, args.json)


def _cmd_twisted_poisson(args) -> int:
    ok, _ = twisted_poisson_check()
    poiss = preset("poiss")
    lit_ok, _ = closure_holds(
        poiss.relations, poiss.relations,
        MixedProduct.poisson_twist_literal(),
        poiss.relations.basis_elements(),
    )
    report = Report("twisted tensor product verification",
                    provenance={"seed": args.seed}, verified=ok and not lit_ok)
    s = report.section("twist", ["product", "closed"])
    s.add("corrected twist (3, 1, 1, -1)", ok)
    s.add("sign-flipped control (3, -1, -1, 1)", lit_ok)
    return _emit(report, args.json)


def _cmd_negative(args) -> int:
    p = _load_operad(args.p)
    q = _load_operad(args.q)
    ok, certs = lift_closure(p, q.relations)
    # Verified means the non-closure claim holds: some relation leaks.
    report = Report("non-closure verification", verified=not ok,
                    provenance={"p": args.p, "q": args.q, "seed": args.seed})
    s = report.section(
        "residuals", ["target relation", "absorbed", "certificate"])
    for x, cert in zip(p.relations.basis_elements(), certs):
        s.add(format_weight3(x), cert.holds, cert.describe())
    return _emit(report, args.json)


def _cmd_companion(args) -> int:
    p = _load_operad(args.operad)
    comp = minimal_companion(p)
    t = tilde(p, seed=args.seed)
    contained = comp.space.is_subspace_of(t.relations.space)
    ok, _ = closure_holds(
        p.relations, comp, MixedProduct.identity(),
        p.relations.basis_elements(),
    )
    report = Report(f"minimal companion of {p.name or args.operad}",
                    provenance={"seed": args.seed}, verified=contained and ok)
    _relations(report, "companion relations", comp)
    s = report.section("facts", ["field", "value"])
    s.add("companion dimension", comp.dim)
    s.add("tilde dimension", t.relations.dim)
    s.add("contained in tilde", contained)
    s.add("closure with companion", ok)
    return _emit(report, args.json)


def _cmd_instance_check(args) -> int:
    alg = _load_instance(args.file)
    p = _load_operad(args.operad)
    report = Report(f"instance check against {args.operad}")
    s = report.section("violations", ["description"])
    try:
        bad = check_relations(alg, p.relations)
    except ValueError as exc:
        s.add(exc)
        bad = [exc]
    else:
        for v in bad[:20]:
            s.add(v)
    s = report.section("facts", ["field", "value"])
    s.add("instance dimension", alg.dim)
    s.add("violations", len(bad))
    report.verified = not bad
    return _emit(report, args.json)


def _cmd_instance_tensor(args) -> int:
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


def _cmd_search(args) -> int:
    p = _load_operad(args.p)
    q = _load_operad(args.q)
    found = search_counterexample(
        p.relations, q.relations, p.relations.basis_elements(),
        max_dim=args.max_dim, seed=args.seed,
    )
    report = Report("counterexample search", verified=found is not None,
                    provenance={"p": args.p, "q": args.q,
                                "max_dim": args.max_dim, "seed": args.seed})
    s = report.section("result", ["field", "value"])
    if found is None:
        s.add("witness", "none found within budget")
    else:
        s.add("left instance", found.left.name or "random")
        s.add("left structure", json.dumps(found.left.to_json()["structure"]))
        s.add("right instance", found.right.name or "random")
        s.add("right structure",
              json.dumps(found.right.to_json()["structure"]))
        s.add("violating triple", found.violation.triple)
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


def _subgroup_section(report: Report, seed: int) -> None:
    s = report.section(
        "subgroup variants",
        ["preset", "dim", "rank", "dual dim", "dual rank", "tilde = dual"],
    )
    for name in _GI_ASS + [f"g{i}p3ass" for i in range(1, 7)]:
        p = preset(name)
        d = dual(p)
        t = tilde(p, seed=seed)
        s.add(name, p.relations.dim, rank(p.relations), d.relations.dim,
              rank(d.relations), t.relations.space == d.relations.space)


def _named_section(report: Report, seed: int) -> None:
    s = report.section("named operads", ["preset", "symmetry", "dim", "rank",
                                         "tilde symmetry", "tilde dim"])
    for name in ("comm3", "leib", "zinb", "poiss", "lie", "com"):
        p = preset(name)
        t = tilde(p, seed=seed)
        s.add(name, p.symmetry.value, p.relations.dim, rank(p.relations),
              t.symmetry.value, t.relations.dim)


def _family_sweep_section(report: Report, seed: int) -> None:
    s = report.section(
        "lie-admissible family sweep",
        ["entry", "dim", "subgroup variant", "tilde = dual",
         "tilde = dual(lieadm)"],
    )
    lieadm_dual = dual(preset("lieadm")).relations.space
    entries = [preset(name) for name in _GI_ASS]
    # Filled from g6 down, so the first variant with a given module wins.
    variant = {p.relations.space: p.name for p in reversed(entries)}
    entries += [preset(*spec) for spec in _FAMILY_SWEEP]
    for p in entries:
        t = tilde(p, seed=seed)
        d = dual(p)
        s.add(p.name, p.relations.dim, variant.get(p.relations.space, "-"),
              t.relations.space == d.relations.space,
              t.relations.space == lieadm_dual)


def _stability_section(report: Report, seed: int) -> None:
    """Compare tilde across several valid presentations of each module.

    tilde is defined from a presentation, not from the relation module
    alone; this probe reports (without asserting) how stable it is when
    the presentation is re-derived from fresh random generators.
    """
    s = report.section(
        "tilde stability probe",
        ["preset", "stored tilde dim", "probe dims (seeds +1..+3)",
         "all equal stored"],
    )
    for name in ("g1ass", "g3ass", "g6ass", "leib", "zinb", "poiss"):
        p = preset(name)
        t0 = tilde(p, seed=seed)
        stripped = QuadraticOperad(p.symmetry, p.relations, None, p.name)
        probes = [tilde(stripped, seed=seed + k).relations for k in (1, 2, 3)]
        s.add(name, t0.relations.dim, " ".join(str(r.dim) for r in probes),
              all(r.space == t0.relations.space for r in probes))


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


def _symmetric_enumeration_section(report: Report, seed: int) -> None:
    s = report.section(
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
            s.add(symmetry.value, label, module.dim,
                  _known_symmetric_label(p, known), t.relations.dim,
                  d.symmetry.value, d.relations.dim,
                  operads_equal(d, t) if d.symmetry is t.symmetry else "n/a")


def _cmd_report(args) -> int:
    report = Report("reference tables", provenance={
        "seed": args.seed, "schema_version": SCHEMA_VERSION})
    for build in (_subgroup_section, _named_section, _family_sweep_section,
                  _stability_section, _symmetric_enumeration_section):
        build(report, args.seed)
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
    v_t1.set_defaults(func=_cmd_theorem1)
    v_bl = v_sub.add_parser("bracket-lie", parents=[common])
    v_bl.add_argument("--preset")
    v_bl.set_defaults(func=_cmd_bracket_lie)
    v_sub.add_parser("twisted-poisson", parents=[common]).set_defaults(
        func=_cmd_twisted_poisson)
    v_neg = v_sub.add_parser("negative", parents=[common])
    v_neg.add_argument("--p", required=True)
    v_neg.add_argument("--q", required=True)
    v_neg.set_defaults(func=_cmd_negative)

    p_comp = sub.add_parser("companion", help="minimal companion module",
                            parents=[common])
    p_comp.add_argument("operad", help="preset name or definition file")
    p_comp.set_defaults(func=_cmd_companion)

    p_inst = sub.add_parser("instance", help="structure-constant instances")
    i_sub = p_inst.add_subparsers(dest="what", required=True)
    i_check = i_sub.add_parser("check", parents=[common])
    i_check.add_argument("file")
    i_check.add_argument("--operad", required=True)
    i_check.set_defaults(func=_cmd_instance_check)
    i_tensor = i_sub.add_parser("tensor", parents=[common])
    i_tensor.add_argument("file_a")
    i_tensor.add_argument("file_b")
    i_tensor.add_argument("--twist", choices=["poisson"])
    i_tensor.set_defaults(func=_cmd_instance_tensor)

    p_search = sub.add_parser("search", help="search for counterexamples")
    s_sub = p_search.add_subparsers(dest="what", required=True)
    s_cx = s_sub.add_parser("counterexample", parents=[common])
    s_cx.add_argument("--p", required=True)
    s_cx.add_argument("--q", required=True)
    s_cx.add_argument("--max-dim", type=int, default=4)
    s_cx.set_defaults(func=_cmd_search)

    p_report = sub.add_parser("report", help="reference tables")
    r_sub = p_report.add_subparsers(dest="what", required=True)
    r_sub.add_parser("paper-tables", parents=[common]).set_defaults(
        func=_cmd_report)

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
