"""Command line front end: check, index, report, verify."""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import sgraph
from .automorphism import load_automorphism
from .config import DEFAULT_BUDGET, RunConfig
from .errors import (
    BudgetExceeded,
    CapExceeded,
    FgIndexError,
    FormulaMismatch,
    InvariantViolation,
    ParseError,
    VerificationFailed,
)
from .prefix_suffix import loops, point_fixed_by
from .singularities import _check_disjoint, _check_labels, find_all, fixing_power

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TRUNCATED = 2
EXIT_INTERNAL = 3


Analysis = namedtuple("Analysis", "phi result graph comps doubled reps")


def analyze(phi, config):
    result = find_all(phi, config)
    sings, comps = result.singularities, result.components
    for comp in comps:
        comp.basis = sgraph.fixed_basis(phi, sings, comp)
    reps = sgraph.attracting_reps(phi, sings, result.graph, comps)
    return Analysis(phi, result, result.graph, comps, result.doubled, reps)


def index_fraction(doubled):
    if doubled % 2 == 0:
        return str(doubled // 2)
    return f"{doubled}/2"


def report_dict(analysis):
    phi = analysis.phi
    alphabet = phi.alphabet
    result = analysis.result
    sings = []
    for s in result.singularities:
        sings.append(
            {
                "id": s.ident,
                "label": {
                    "w": alphabet.format_word(s.label.w),
                    "k": s.label.k,
                },
                "fixing_power": fixing_power(phi, s),
                "points": [p.to_json(alphabet) for p in s.point_list()],
            }
        )
    graph = {
        "finite_edges": [
            {"src": a, "dst": b, "word": alphabet.format_word(v)}
            for (a, b, v) in analysis.graph.finite_edges
        ],
        "infinite_edges": [
            {
                "node": node,
                "side": side,
                "letter": alphabet.format_letter(letter),
            }
            for (node, (side, letter)) in analysis.graph.infinite_edges
        ],
    }
    comps = []
    for c in analysis.comps:
        comps.append(
            {
                "nodes": c.nodes,
                "rank": c.cycle_rank,
                "attracting_classes": c.attracting_classes,
                "basis": [alphabet.format_word(u) for u in c.basis],
            }
        )
    reps = []
    for r in analysis.reps:
        gen = dict(r["generator"])
        if gen["kind"] == "cycle":
            gen["letter"] = alphabet.format_letter(gen["letter"])
        else:
            gen["words"] = [alphabet.format_word(w) for w in gen["words"]]
        reps.append(
            {
                "node": r["node"],
                "side": r["side"],
                "letter": alphabet.format_letter(r["letter"]),
                "path": alphabet.format_word(r["path"]),
                "generator": gen,
            }
        )
    return {
        "rank": phi.rank,
        "fo_index_times_2": analysis.doubled,
        "index": index_fraction(analysis.doubled),
        "complete": result.complete,
        "sweep": {
            "k_target": result.k_target,
            "k_reached": result.k_reached,
            "full_levels": result.full_levels,
            "partial_levels": _level_runs(result.partial_levels),
            "early_exited": result.early_exited,
            "max_rho_power": result.max_rho_power,
            "budget_used": result.budget_used,
            "dropped_candidates": result.dropped,
        },
        "singularities": sings,
        "graph": graph,
        "components": comps,
        "attracting_reps": reps,
    }


def _level_runs(levels):
    """Increasing levels as inclusive [first, last] runs."""
    runs = []
    for k in levels:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return runs


def _level_ranges(levels):
    """Increasing levels as comma-separated runs, such as '2, 5-7, 9'."""
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in _level_runs(levels))


def _exit_code(result, rank):
    """EXIT_OK, or EXIT_TRUNCATED after a stderr banner saying why."""
    if result.complete:
        return EXIT_OK
    if result.partial_levels:
        why = f"partial levels: {_level_ranges(result.partial_levels)}"
    else:
        why = f"level target {result.k_target} below 4N-4 = {4 * rank - 4}"
    print(
        "INCOMPLETE: sweep truncated "
        f"(reached level {result.k_reached} of {result.k_target}; {why})",
        file=sys.stderr,
    )
    return EXIT_TRUNCATED


def _write_outputs(args, analysis):
    if getattr(args, "json", None):
        text = json.dumps(report_dict(analysis), indent=2, sort_keys=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "dot", None):
        text = sgraph.to_dot(
            analysis.phi,
            analysis.result.singularities,
            analysis.graph,
            analysis.phi.alphabet,
        )
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_check(args):
    phi = load_automorphism(args.file)
    alphabet = phi.alphabet
    print(f"rank: {phi.rank}")
    print(f"letters: {' '.join(alphabet.names)}")
    for a in alphabet.letters():
        image = alphabet.format_word(phi.images[a - 1])
        print(f"  {alphabet.format_letter(a)} -> {image}")
    print("positive: yes")
    print("inverse: checks out")
    print("primitive: yes")
    return EXIT_OK


def _config_from(args):
    return RunConfig(
        max_k=args.max_k,
        early_exit=args.early_exit,
        budget=args.budget,
    )


def cmd_index(args):
    phi = load_automorphism(args.file)
    analysis = analyze(phi, _config_from(args))
    result = analysis.result
    print(f"rank: {phi.rank}")
    print(f"singularities: {len(result.singularities)}")
    print(f"doubled index: {analysis.doubled}")
    print(f"index: {index_fraction(analysis.doubled)}")
    print(f"complete: {'yes' if result.complete else 'no'}")
    _write_outputs(args, analysis)
    return _exit_code(result, phi.rank)


def cmd_report(args):
    phi = load_automorphism(args.file)
    analysis = analyze(phi, _config_from(args))
    result = analysis.result
    if getattr(args, "json", None) or getattr(args, "dot", None):
        _write_outputs(args, analysis)
    else:
        print(json.dumps(report_dict(analysis), indent=2, sort_keys=True))
    return _exit_code(result, phi.rank)


def cmd_verify(args):
    phi = load_automorphism(args.file)
    analysis = analyze(phi, _config_from(args))
    result = analysis.result
    graph = analysis.graph
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")

    def check_formulas():
        sgraph.fo_index(phi, result.singularities, graph, analysis.comps)

    def check_bound():
        if analysis.doubled > 2 * (phi.rank - 1):
            raise InvariantViolation("doubled index above rank bound")

    def check_nodes():
        for s in result.singularities:
            classes = graph.node_classes[s.ident]
            claimed = graph.claimed[s.ident]
            inf = sum(1 for (n, _) in graph.infinite_edges if n == s.ident)
            if len(classes) != len(claimed) + inf:
                raise InvariantViolation(f"node {s.ident} germ count off")

    def check_ranks():
        for c in analysis.comps:
            if c.cycle_rank != len(c.edges) - len(c.nodes) + 1:
                raise InvariantViolation("component rank identity fails")

    def check_basis():
        for c in analysis.comps:
            sgraph.fixed_basis(phi, result.singularities, c)

    def check_fixing():
        for s in result.singularities:
            h = fixing_power(phi, s)
            wh = phi.conjugator_power(s.label.w, s.label.k, h)
            for p in s.point_list():
                if not point_fixed_by(phi, p, wh, s.label.k * h):
                    raise VerificationFailed(
                        f"point of class {s.ident} moves under its power"
                    )

    def check_rho():
        if result.max_rho_power > 4 * phi.rank - 4:
            raise InvariantViolation("development period above bound")

    def check_rerun():
        again = sgraph.build_graph(phi, result.singularities)
        if again.finite_edges != graph.finite_edges:
            raise InvariantViolation("graph construction is unstable")
        if again.infinite_edges != graph.infinite_edges:
            raise InvariantViolation("infinite edges are unstable")

    check("loop-census", lambda: loops(phi, 1))
    check("index-formulas-agree", check_formulas)
    check("index-bound", check_bound)
    check("node-germ-identity", check_nodes)
    check("component-rank-identity", check_ranks)
    check("basis-fixed", check_basis)
    check("labels-pure", lambda: _check_labels(phi, result.singularities))
    check("classes-disjoint", lambda: _check_disjoint(result.singularities))
    check("fixing-powers", check_fixing)
    check("development-period-bound", check_rho)
    check("graph-deterministic", check_rerun)
    _write_outputs(args, analysis)
    if failures:
        return EXIT_INVALID
    return _exit_code(result, phi.rank)


def _add_run_flags(sub):
    sub.add_argument("--max-k", type=int, default=None, dest="max_k")
    sub.add_argument("--early-exit", action="store_true", dest="early_exit")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--json", default=None)
    sub.add_argument("--dot", default=None)


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 through main: argparse's 2 means a truncated sweep.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="fgindex",
        description="Index of a positive primitive free-group automorphism.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    p_check = subs.add_parser("check", help="validate an automorphism file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)
    for name, func, text in (
        ("index", cmd_index, "compute the index"),
        ("report", cmd_report, "emit the full JSON report"),
        ("verify", cmd_verify, "recompute and cross-check every invariant"),
    ):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("file")
        _add_run_flags(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, VerificationFailed, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except (InvariantViolation, FormulaMismatch, CapExceeded) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FgIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
