"""Command-line front end.

Every command prints a JSON-lines report whose first line carries the
verdict; ``--format table`` renders the same data as text. Exit codes are
uniform: 0 when the property holds or the command succeeds, 1 when a checked
property is violated (with a machine-readable witness on standard output),
2 on input or usage errors, 3 on an internal error (traceback on standard
error). When the reader of standard output goes away the command stops
writing and exits 141, as a process killed by SIGPIPE does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import decision, family, swig
from .dist import FiniteDistribution, jsonable
from .errors import NotIdentified, SwigcheckError
from .graph import parse_assignment, parse_dag

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _emit(lines, out=None):
    text = "\n".join(json.dumps(jsonable(line), ensure_ascii=False, sort_keys=False) for line in lines)
    print(text, file=out or sys.stdout)


def _verdict(holds: bool, lines) -> int:
    """Emit the verdict line, then ``lines``; the exit code follows the verdict."""
    _emit([{"verdict": "holds" if holds else "violated"}, *lines])
    return EXIT_OK if holds else EXIT_VIOLATED


def _write_artifact(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# -- commands ----------------------------------------------------------------


def cmd_split(args) -> int:
    dag = parse_dag(family.read_json_file(args.graph))
    assignment = parse_assignment(args.assign or "")
    sw = swig.split(dag, assignment, args.labeling)
    if args.format == "dot":
        _write_artifact(args.out, swig.emit_dot(sw))
    else:
        _write_artifact(args.out, json.dumps(swig.swig_to_json(sw), indent=2, sort_keys=False) + "\n")
    return EXIT_OK


def cmd_dsep(args) -> int:
    dag = parse_dag(family.read_json_file(args.graph))
    assignment = parse_assignment(args.assign or "")
    if args.side == "swig":
        graph = swig.split(dag, assignment, "uniform").graph
    else:
        graph = decision.instantiate_regime(decision.augment(dag), assignment)
    x = swig.parse_node_set(args.x)
    y = swig.parse_node_set(args.y)
    z = swig.parse_node_set(args.z or "")
    result = graph.d_separated(x, y, z)
    lines = [{"verdict": "separated" if result.separated else "connected", **result.to_json()}]
    _emit(lines)
    return EXIT_OK if result.separated else EXIT_VIOLATED


def cmd_markov(args) -> int:
    dag = parse_dag(family.read_json_file(args.graph))
    if args.side == "swig":
        statements = swig.local_markov_statements(dag, args.view)
    else:
        statements = decision.augmented_markov_statements(dag)
    if args.format == "table":
        for st in statements:
            print(st["text"])
    else:
        _emit([{"verdict": "ok", "side": args.side, "count": len(statements)}] + statements)
    return EXIT_OK


CHECK_FAMILY_MODES = ("consistency", "swig-markov", "observed-markov", "complete-graph", "all")
CHECK_KERNEL_MODES = ("consistency", "augmented-markov", "observed-markov", "dawid-ab", "all")


def _family_reports(fam, mode):
    reports = []
    if mode in ("consistency", "all"):
        reports.append(family.check_distributional_consistency(fam))
    if mode in ("swig-markov", "all"):
        reports.append(family.check_swig_local_markov(fam))
    if mode in ("observed-markov", "all"):
        reports.append(family.check_observed_markov(fam.observed(), fam.dag))
    if mode in ("complete-graph", "all"):
        reports.append(family.check_complete_graph_markov(fam))
    return reports


def _kernel_reports(kernel, mode):
    reports = []
    if mode in ("consistency", "all"):
        reports.append(decision.check_kernel_consistency(kernel))
    if mode in ("augmented-markov", "all"):
        reports.append(decision.check_augmented_markov(kernel))
    if mode in ("observed-markov", "all"):
        idle = kernel.member(kernel.idle_regime())
        reports.append(family.check_observed_markov(idle, kernel.dag))
    if mode == "dawid-ab" or (mode == "all" and kernel.roles):
        roles = kernel.roles
        missing = {"itt", "applied", "indicator"} - set(roles)
        if missing:
            raise SwigcheckError(f"kernel spec lacks roles for dawid-ab: {sorted(missing)}")
        reports.append(
            decision.check_dawid_AB(kernel, roles["itt"], roles["applied"], roles["indicator"])
        )
    return reports


def cmd_check(args) -> int:
    if bool(args.family) == bool(args.kernel):
        raise SwigcheckError("exactly one of --family or --kernel is required")
    if args.family:
        path, spec, modes, checks = args.family, family.CounterfactualFamily, CHECK_FAMILY_MODES, _family_reports
    else:
        path, spec, modes, checks = args.kernel, decision.RegimeKernel, CHECK_KERNEL_MODES, _kernel_reports
    if args.mode not in modes:
        raise SwigcheckError(f"mode {args.mode!r} does not apply to {'families' if args.family else 'kernels'}")
    reports = checks(spec.from_json(family.read_json_file(path), base_dir=Path(path).parent), args.mode)
    return _verdict(all(r.holds for r in reports), [r.to_json() for r in reports])


def cmd_gformula(args) -> int:
    dag = parse_dag(family.read_json_file(args.graph))
    p = FiniteDistribution.from_json(family.read_json_file(args.dist))
    intervention = parse_assignment(args.intervene or "")
    extra = set(intervention) - set(dag.targets)
    if extra:
        raise SwigcheckError(f"intervention names non-targets: {sorted(extra)}")
    p = p.reorder(dag.order)
    if not intervention:
        out = p
    else:
        cpts = family.observational_cpts(p, dag)
        try:
            out = family.gformula_member(dag, p.cards, cpts, intervention)
        except NotIdentified as exc:
            _emit(
                [
                    {
                        "verdict": "violated",
                        "error": "NotIdentified",
                        "vertex": exc.vertex,
                        "cell": exc.cell,
                        "message": str(exc),
                    }
                ]
            )
            return EXIT_VIOLATED
    _write_artifact(args.out, json.dumps(out.to_json(), indent=2, sort_keys=False) + "\n")
    return EXIT_OK


def _demo_intersection():
    half = Fraction(1, 2)
    pm = decision.bernoulli_pair(half, Fraction(3, 10))
    pp = decision.bernoulli_pair(half, Fraction(7, 10))
    _, report = decision.build_intersection_counterexample(pm, pp)
    return report.holds, [report.to_json()]


def _demo_frontdoor():
    result = decision.frontdoor_demo()
    return result["pattern_reproduced"], [
        {"d_separation": result["d_separation"].to_json()},
        {
            "kernel": "sharp",
            "solid": [r.to_json() for r in result["sharp"]["solid"]],
            "context_specific": result["sharp"]["context_specific"].to_json(),
        },
        {
            "kernel": "leaky",
            "mix_weight": str(result["leaky"]["mix_weight"]),
            "solid": [r.to_json() for r in result["leaky"]["solid"]],
            "context_specific": result["leaky"]["context_specific"].to_json(),
        },
    ]


def _demo_move_to_idle():
    full = decision.check_move_to_idle(
        [(a, b) for a in (None, 0, 1) for b in (None, 0, 1)]
    )
    completion = decision.check_move_to_idle(
        [(None, None), (1, None), (2, None), (1, 1), (2, 2)]
    )
    pathological = decision.check_move_to_idle([(None, None), (1, 1)])
    return full.holds and completion.holds and not pathological.holds, [
        {"space": "full-product", **full.to_json()},
        {"space": "treatment-completion", **completion.to_json()},
        {"space": "sign-locked-pair", **pathological.to_json()},
    ]


# each demo returns its verdict and the report lines that follow it
_DEMOS = {"intersection": _demo_intersection, "frontdoor": _demo_frontdoor, "move-to-idle": _demo_move_to_idle}


def cmd_demo(args) -> int:
    return _verdict(*_DEMOS[args.name]())


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swigcheck",
        description="Split intervention graphs, counterfactual families, and regime kernels over finite discrete models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="split a graph at its targets and emit the result")
    p.add_argument("--graph", required=True, help="path to a graph spec (JSON)")
    p.add_argument("--assign", default="", help='intervention values, e.g. "X0=0,X1=1"')
    p.add_argument("--labeling", choices=swig.SCHEMES, default="uniform")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("dsep", help="d-separation query on a split or instantiated graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--assign", default="", help="intervention (swig) or non-idle regime values (augmented)")
    p.add_argument("--side", choices=("swig", "augmented"), default="swig")
    p.add_argument("--x", required=True, help='comma-separated nodes; prefix fixed nodes with "fixed:"')
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("markov", help="list the local Markov statements of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--side", choices=("swig", "augmented"), default="swig")
    p.add_argument("--view", choices=("d-separation", "factorization"), default="d-separation")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("check", help="run checkers against a family or kernel file")
    p.add_argument("--family", default=None)
    p.add_argument("--kernel", default=None)
    p.add_argument(
        "--mode",
        default="all",
        choices=sorted(set(CHECK_FAMILY_MODES) | set(CHECK_KERNEL_MODES)),
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gformula", help="interventional law via the extended g-formula")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True, help="path to the observational law (JSON)")
    p.add_argument("--intervene", default="", help='e.g. "X0=0"; empty echoes the input law')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gformula)

    p = sub.add_parser("demo", help="run a bundled construction end to end")
    p.add_argument("name", choices=tuple(_DEMOS))
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (SwigcheckError, OSError) as exc:
            # inputs that cannot be read are InvalidDocument; an OSError here
            # comes from writing the --out path
            _emit([{"verdict": "error", "error": type(exc).__name__, "message": str(exc)}])
            code = EXIT_ERROR
        except Exception:
            traceback.print_exc()
            return EXIT_INTERNAL
        sys.stdout.flush()  # a reader that has gone is seen here, not at interpreter exit
        return code
    except BrokenPipeError:
        # write nothing more, and send what is still buffered to the null
        # device so that the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
