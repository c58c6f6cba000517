"""Command-line interface: partition / diagnose / allocate / simulate / bench / verify.

stdout carries data documents, stderr carries logs (silenced by --quiet).
Exit codes: 0 success or optimal, 1 input error, 2 infeasible or failed
verification. Input errors print a single line prefixed with "error: ".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .allocator import (
    AllocationBuildError,
    problem_from_json_dict,
    problem_to_json_dict,
    solution_from_plan_dict,
    verify,
)
from .config_space import BlockShape, CostModel, measure_cost_model
from .partitioner import (
    PartitionParams,
    compute_tau,
    load_model_description,
    partition,
    partition_to_json_dict,
)
from .pipeline import AllocationInfeasibleError, RunConfig, collect_metrics, plan_bytes, run_allocation
from .risk import Anchors, RiskWeights, load_risk_config, parse_selector, signals_from_metrics
from .simulator import generate_stream, load_profiles
from .trace import BlockSpec, TraceParseError, read_trace, write_trace

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _default_seed() -> int:
    return int(os.environ.get("BAOC_SEED", "0"))


def build_parser() -> _Parser:
    parser = _Parser(prog="baoc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"baoc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--quiet", action="store_true", help="suppress stderr logs")

    p = sub.add_parser("simulate", help="generate a synthetic sampled gradient trace")
    p.add_argument("--profile", required=True, help="JSON file with block shapes and stream profiles")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--sampling-ratio", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=None, help="default seed (BAOC_SEED when absent)")
    p.add_argument("--out", default=None, help="trace path (stdout when absent)")
    common(p)

    p = sub.add_parser("diagnose", help="compute per-block metric snapshots from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None, help="metrics JSON path (stdout when absent)")
    common(p)

    p = sub.add_parser("allocate", help="solve the budgeted configuration assignment for a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--budget-ratio", type=float, default=0.5)
    p.add_argument("--time-budget", type=float, default=1.3)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--lambda-pref", type=float, default=None)
    p.add_argument("--anchor-scale", type=float, default=1.0)
    p.add_argument("--exclude", action="append", default=[], metavar="FAMILY[:BITS]")
    p.add_argument("--prefer", action="append", default=[], metavar="FAMILY[:BITS]")
    p.add_argument("--risk-config", default=None, help="JSON file with anchors/weights/preferences")
    p.add_argument("--cost-model", default=None, help="cost model JSON from `bench`")
    p.add_argument("--blocks", default=None, help="partition output; merges traced units into blocks")
    p.add_argument("--warmup-steps", type=int, default=None)
    p.add_argument("--out", default=None, help="plan path (stdout when absent)")
    p.add_argument("--dump-problem", default=None, help="also write the solver input document")
    common(p)

    p = sub.add_parser("partition", help="refine structural units into final blocks")
    p.add_argument("--model-desc", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--tau", type=float, default=None, help="fixed threshold (upper quartile when absent)")
    p.add_argument("--anchor-scale", type=float, default=1.0)
    p.add_argument("--risk-config", default=None)
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("bench", help="measure relative update-time ratios on this host")
    p.add_argument("--dims", default="256x256", help="reference block shape, e.g. 256x256")
    p.add_argument("--reps", type=int, default=25)
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("verify", help="check a plan against its problem document")
    p.add_argument("--problem", required=True)
    p.add_argument("--plan", required=True)
    common(p)

    return parser


def _log(args: argparse.Namespace, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _positive(value: float, flag: str) -> float:
    if not value > 0:
        raise UsageError(f"{flag} must be positive, got {value}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    _positive(args.sampling_ratio, "--sampling-ratio")
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    seed = args.seed if args.seed is not None else _default_seed()
    defs, file_ratio = load_profiles(args.profile, default_seed=seed)
    ratio = file_ratio if file_ratio is not None else args.sampling_ratio
    specs = [
        BlockSpec.create(d["id"], d["name"], d["dims"], ratio, seed, module_kind=d["kind"])
        for d in defs
    ]
    profiles = {d["id"]: d["profile"] for d in defs}
    records = generate_stream(specs, profiles, args.steps)
    _log(args, f"simulated {len(specs)} blocks x {args.steps} steps (sampling ratio {ratio})")
    if args.out is None:
        write_trace(sys.stdout, specs, records, ratio)
    else:
        write_trace(args.out, specs, records, ratio)
        _log(args, f"wrote trace to {args.out}")
    return EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    specs, records = read_trace(args.trace)
    metrics = collect_metrics(specs, records)
    report = [metrics[s.id].to_json_dict(s.id) for s in specs]
    _write_output(json.dumps(report, sort_keys=True, indent=2), args.out)
    _log(args, f"diagnosed {len(specs)} blocks from {args.trace}")
    return EXIT_OK


def _load_risk_settings(args: argparse.Namespace) -> tuple[Anchors, RiskWeights, list[str]]:
    if args.risk_config is not None:
        anchors, weights, prefer = load_risk_config(args.risk_config)
    else:
        anchors, weights, prefer = Anchors(), RiskWeights(), []
    scale = _positive(args.anchor_scale, "--anchor-scale")
    if scale != 1.0:
        anchors = anchors.scaled(scale)
    return anchors, weights, prefer


def _cmd_allocate(args: argparse.Namespace) -> int:
    _positive(args.budget_ratio, "--budget-ratio")
    _positive(args.time_budget, "--time-budget")
    if args.gamma < 0:
        raise UsageError(f"--gamma must be non-negative, got {args.gamma}")
    anchors, weights, prefer = _load_risk_settings(args)
    prefer = list(prefer) + list(args.prefer)
    if args.lambda_pref is not None:
        if args.lambda_pref < 0:
            raise UsageError(f"--lambda-pref must be non-negative, got {args.lambda_pref}")
        weights = RiskWeights(
            w_A=weights.w_A, w_M=weights.w_M, w_C=weights.w_C, w_F=weights.w_F, w_Q=weights.w_Q,
            pref_set=weights.pref_set, lambda_pref=args.lambda_pref,
        )
    for selector in list(args.exclude) + prefer:
        parse_selector(selector)  # fail fast, naming the bad selector

    cost_model = None
    if args.cost_model is not None:
        try:
            cost_model = CostModel.from_json(Path(args.cost_model).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"--cost-model {args.cost_model}: {exc}") from None

    groups = None
    if args.blocks is not None:
        with open(args.blocks, "r", encoding="utf-8") as fh:
            blocks_doc = json.load(fh)
        rows = blocks_doc.get("blocks") if isinstance(blocks_doc, dict) else None
        if not isinstance(rows, list):
            raise ValueError(f"--blocks {args.blocks}: expected an object with a 'blocks' list")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not isinstance(row.get("unit_ids"), list):
                raise ValueError(f"--blocks {args.blocks}: blocks[{i}] is not an object with a 'unit_ids' list")
        groups = [row["unit_ids"] for row in rows]

    config = RunConfig(
        budget_ratio=args.budget_ratio,
        time_budget=args.time_budget,
        gamma=args.gamma,
        anchors=anchors,
        weights=weights,
        warmup_steps=args.warmup_steps,
        cost_model=cost_model,
        exclude=tuple(args.exclude),
        prefer=tuple(prefer),
    )
    result = run_allocation(config, args.trace, groups=groups)
    if args.dump_problem is not None:
        Path(args.dump_problem).write_text(
            json.dumps(problem_to_json_dict(result.problem), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        _log(args, f"wrote problem document to {args.dump_problem}")
    text = plan_bytes(result.plan).decode("utf-8")
    _write_output(text, args.out)
    _log(
        args,
        f"optimal: objective {result.solution.objective:.6g}, "
        f"state memory {result.solution.total_mem}/{result.problem.mem_budget} bytes, "
        f"mean time ratio {result.solution.mean_time_ratio:.4g}",
    )
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    _positive(args.alpha, "--alpha")
    if args.alpha >= 1.0:
        raise UsageError(f"--alpha must be below 1, got {args.alpha}")
    anchors, _, _ = _load_risk_settings(args)
    units = load_model_description(args.model_desc)
    specs, records = read_trace(args.trace)
    metrics = collect_metrics(specs, records)
    unit_ids = {u.id for u in units}
    traced = set(metrics)
    if not unit_ids <= traced:
        raise ValueError(f"trace lacks diagnostics for units {sorted(unit_ids - traced)}")
    signals = {uid: signals_from_metrics(metrics[uid], anchors) for uid in unit_ids}
    params = PartitionParams(alpha=args.alpha, tau=args.tau if args.tau is not None else "upper_quartile")
    tau = compute_tau(units, signals, params)
    blocks = partition(units, signals, dataclasses.replace(params, tau=tau))
    doc = partition_to_json_dict(units, blocks, params, tau)
    _write_output(json.dumps(doc, sort_keys=True, indent=2), args.out)
    _log(args, f"partitioned {len(units)} units into {len(blocks)} blocks (tau {tau:.4g})")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    try:
        dims = tuple(int(x) for x in args.dims.lower().split("x"))
        shape = BlockShape(dims)
    except ValueError:
        raise UsageError(f"--dims must look like 256x256, got {args.dims!r}") from None
    _log(args, f"timing update kernels on shape {dims} ({args.reps} reps each)")
    model = measure_cost_model(shape, repetitions=args.reps)
    _write_output(model.to_json(), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = problem_from_json_dict(json.load(fh))
    with open(args.plan, "r", encoding="utf-8") as fh:
        solution = solution_from_plan_dict(json.load(fh))
    report = verify(problem, solution)
    _write_output(json.dumps(report.to_json_dict(), sort_keys=True, indent=2), None)
    if report.ok:
        _log(args, "plan is feasible and consistent")
        return EXIT_OK
    _log(args, f"{len(report.violations)} violation(s) found")
    return EXIT_INFEASIBLE


_HANDLERS = {
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "allocate": _cmd_allocate,
    "partition": _cmd_partition,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except AllocationInfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        UsageError,
        AllocationBuildError,
        TraceParseError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
