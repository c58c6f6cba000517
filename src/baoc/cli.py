"""Command-line interface: partition / diagnose / allocate / simulate / bench / verify.

stdout carries data documents, stderr carries logs (silenced by --quiet).
Exit codes: 0 success or optimal, 1 input error, 2 infeasible or failed
verification. Input errors print a single line prefixed with "error: ".

The partition document (`partition --out B`) hands the diagnostics on to
`allocate --blocks B`. Next to the blocks it carries `trace_sha256`, the hex
sha256 of the trace file's bytes; `warmup_steps`, the window diagnosed (null
for the whole trace); and `metrics`, one `diagnose` row per traced unit.
`allocate --blocks B --trace T` reuses those metrics, reading only T's
header, when T's sha256 matches, its --warmup-steps equals the stamped
window, and the rows cover every unit in T's header with exactly the
precision bits of the candidate grid. Otherwise it diagnoses T itself, and
its log says why the document's metrics were not used.

Both commands compute the trace's sha256 on a second thread while they
read the trace themselves, and wait for it only where they need the
digest. The thread is joined before the command returns, and an error of
the command's own wins over one of the thread's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import (
    AllocationBuildError,
    problem_from_json_dict,
    problem_to_json_dict,
    solution_from_plan_dict,
    verify,
)
from .config_space import GRID, VALID_BITS, BlockShape, CostModel, measure_cost_model
from .diagnostics import RawMetrics
from .documents import BadValue, json_int, json_ints, json_list, json_str, load, naming, read, read_list
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
from .trace import _RECORD_BUFFER, BlockSpec, TraceParseError, read_trace, write_trace

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="baoc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"baoc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--quiet", action="store_true", help="suppress stderr logs")

    p = sub.add_parser("simulate", help="generate a synthetic sampled gradient trace")
    p.add_argument("--profile", required=True, help="JSON file with block shapes and stream profiles")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument(
        "--sampling-ratio",
        type=float,
        default=None,
        help="sampled fraction of each block (the profile file's sampling_ratio, else 0.001, when absent)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed of the sampled coordinates and of every profile that names none"
    )
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

    p = sub.add_parser(
        "partition",
        help="refine structural units into final blocks",
        description="Refine structural units into final blocks. Besides the blocks, the document "
        "carries trace_sha256 (the sha256 of the trace file), warmup_steps (the window diagnosed, "
        "null for the whole trace) and metrics (the `baoc diagnose` row of every traced unit). "
        "`baoc allocate --blocks` reuses the metrics instead of diagnosing the trace again when "
        "its trace has that sha256, its --warmup-steps is that window and the rows cover the "
        "trace's units with the precision bits it needs.",
    )
    p.add_argument("--model-desc", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--tau", type=float, default=None, help="fixed threshold (upper quartile when absent)")
    p.add_argument("--anchor-scale", type=float, default=1.0)
    p.add_argument("--risk-config", default=None)
    p.add_argument("--warmup-steps", type=int, default=None, help="diagnose the first N steps, as allocate does")
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


def _non_negative(value: float, flag: str) -> float:
    if not value >= 0:
        raise UsageError(f"{flag} must be non-negative, got {value}")
    return value


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}")
    return value


def _check_warmup_steps(steps: int | None) -> None:
    if steps is not None and steps < 2:
        raise UsageError(f"--warmup-steps must be at least 2 for direction stability, got {steps}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.sampling_ratio is not None:
        _positive(args.sampling_ratio, "--sampling-ratio")
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    defs, file_ratio = load_profiles(args.profile, default_seed=args.seed)
    if None not in (args.sampling_ratio, file_ratio) and args.sampling_ratio != file_ratio:
        raise UsageError(
            f"--sampling-ratio {args.sampling_ratio} differs from the profile file's sampling_ratio {file_ratio}"
        )
    ratio = next((r for r in (args.sampling_ratio, file_ratio) if r is not None), 0.001)
    specs = [
        BlockSpec.create(d["id"], d["name"], d["dims"], ratio, args.seed, module_kind=d["kind"])
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
    scale = _finite(_positive(args.anchor_scale, "--anchor-scale"), "--anchor-scale")
    if scale != 1.0:
        anchors = anchors.scaled(scale)
    return anchors, weights, prefer


def _file_sha256(path: str) -> str:
    """Hex sha256 of a file's bytes, read in chunks of `_RECORD_BUFFER` bytes into one buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(_RECORD_BUFFER)
    with open(path, "rb", buffering=0) as fh, memoryview(buffer) as view:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


class _BackgroundSha256:
    """`_file_sha256(path)`, computed on a thread of its own from construction on.

    The read and the hash release the interpreter lock, so the thread runs
    while the command decodes the trace. It takes the lock back after each
    chunk, and waits for it each time: in 1 MiB chunks that is a few times a
    pass, while 64 KiB chunks lose most of the overlap. `result()` waits for
    the digest and raises what the hash raised. Leaving the `with` block
    joins the thread, so an error of the command's own wins over one of the
    hash's.
    """

    def __init__(self, path: str) -> None:
        self._digest = ""
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, args=(path,), name="trace-sha256")
        self._thread.start()

    def _run(self, path: str) -> None:
        try:
            self._digest = _file_sha256(path)
        except Exception as exc:  # raised again by `result()`
            self._error = exc

    def __enter__(self) -> "_BackgroundSha256":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._thread.join()

    def result(self) -> str:
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._digest


@dataclasses.dataclass(frozen=True)
class _Diagnosed:
    """The raw metrics a partition document carries, and the trace bytes and window they came from."""

    trace_sha256: str
    warmup_steps: int | None
    metrics: dict[int, RawMetrics]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "_Diagnosed":
        metrics: dict[int, RawMetrics] = {}
        for i, row in enumerate(read(doc, "metrics", json_list)):
            with naming(f"metrics[{i}]"):
                block_id = read(row, "block_id", json_int)
                if block_id in metrics:
                    raise ValueError(f"duplicate block_id {block_id}")
                metrics[block_id] = RawMetrics.from_json_dict(row)
        for key in ("trace_sha256", "warmup_steps"):
            if key not in doc:
                raise ValueError(f"'metrics' comes without '{key}'")
        return cls(read(doc, "trace_sha256", json_str), read(doc, "warmup_steps", _window_steps), metrics)

    def mismatch(self, trace_sha256: _BackgroundSha256, warmup_steps: int | None, specs: list[BlockSpec]) -> str:
        """Why these metrics are not the ones `allocate` would diagnose; "" when they are.

        The trace's digest is awaited only once the window matches.
        """
        if self.warmup_steps != warmup_steps:
            return f"they cover {_window(self.warmup_steps)}, --warmup-steps asks for {_window(warmup_steps)}"
        digest = trace_sha256.result()
        if digest != self.trace_sha256:
            return f"the trace's sha256 is {digest[:12]}..., theirs {self.trace_sha256[:12]}..."
        ids = {s.id for s in specs}
        if set(self.metrics) != ids:
            missing, extra = sorted(ids - set(self.metrics)), sorted(set(self.metrics) - ids)
            return f"the rows lack units {missing} and add units {extra}"
        wrong = [i for i in sorted(ids) if set(self.metrics[i].precision_cosine) != set(VALID_BITS)]
        if wrong:
            return f"the rows of units {wrong} do not carry exactly the bits {list(VALID_BITS)}"
        return ""


def _window(warmup_steps: int | None) -> str:
    return "the whole trace" if warmup_steps is None else f"{warmup_steps} steps"


def _window_steps(value: object) -> int | None:
    if value is None or type(value) is int:
        return value
    raise BadValue("an integer or null", value)


def _partition_document(doc: dict) -> tuple[list[list[int]], _Diagnosed | None]:
    """The unit-id groups of a partition document, and the metrics it carries, if any."""
    groups = read_list(doc, "blocks", lambda row: read(row, "unit_ids", json_ints).tolist())
    return groups, None if doc.get("metrics") is None else _Diagnosed.from_json_dict(doc)


def _grid_cost_model(doc: dict) -> CostModel:
    """A cost model with a ratio for every configuration of the candidate grid."""
    model = CostModel.from_json_dict(doc)
    model.ratio_row(np.ones(len(GRID.configs), dtype=bool))
    return model


def _cmd_allocate(args: argparse.Namespace) -> int:
    _positive(args.budget_ratio, "--budget-ratio")
    _positive(args.time_budget, "--time-budget")  # may be inf: no time budget
    _finite(_non_negative(args.gamma, "--gamma"), "--gamma")
    _check_warmup_steps(args.warmup_steps)
    anchors, weights, prefer = _load_risk_settings(args)
    prefer = list(prefer) + list(args.prefer)
    if args.lambda_pref is not None:
        _finite(_non_negative(args.lambda_pref, "--lambda-pref"), "--lambda-pref")
        weights = dataclasses.replace(weights, lambda_pref=args.lambda_pref)
    for selector in list(args.exclude) + list(args.prefer):
        parse_selector(selector)  # fail fast, naming the bad selector

    cost_model = None if args.cost_model is None else load(args.cost_model, "--cost-model", _grid_cost_model)
    groups, diagnosed = (None, None) if args.blocks is None else load(args.blocks, "--blocks", _partition_document)
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
    with (contextlib.nullcontext() if diagnosed is None else _BackgroundSha256(args.trace)) as trace_sha256:
        specs, records = read_trace(args.trace)
        metrics, reason = None, ""
        if diagnosed is not None:
            reason = diagnosed.mismatch(trace_sha256, config.warmup_steps, specs)
            metrics = None if reason else diagnosed.metrics
        result = run_allocation(config, (specs, records), groups=groups, metrics=metrics)
    if metrics is not None:
        _log(args, f"diagnostics reused from --blocks (trace sha256 {diagnosed.trace_sha256[:12]}...)")
    else:
        # The steps folded in, which a trace shorter than --warmup-steps makes fewer.
        steps = None if config.warmup_steps is None else max(m.steps for m in result.metrics.values())
        why = f" (--blocks metrics not used: {reason})" if reason else ""
        _log(args, f"diagnosed {_window(steps)} of {len(specs)} units from --trace{why}")
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
    _check_warmup_steps(args.warmup_steps)
    params = PartitionParams(alpha=args.alpha, tau=args.tau if args.tau is not None else "upper_quartile")
    anchors, _, _ = _load_risk_settings(args)
    units = load_model_description(args.model_desc)
    with _BackgroundSha256(args.trace) as trace_sha256:
        specs, records = read_trace(args.trace)
        traced = {s.id: s.shape for s in specs}
        missing = sorted(u.id for u in units if u.id not in traced)
        if missing:
            raise ValueError(f"trace lacks diagnostics for units {missing}")
        for unit in units:
            if unit.shape != traced[unit.id]:
                raise ValueError(
                    f"--model-desc {args.model_desc}: unit {unit.id} has dims {list(unit.shape.dims)}, "
                    f"but the trace's block {unit.id} has dims {list(traced[unit.id].dims)}"
                )
        metrics = collect_metrics(specs, records, max_steps=args.warmup_steps)
        digest = trace_sha256.result()
    signals = {u.id: signals_from_metrics(metrics[u.id], anchors) for u in units}
    tau = compute_tau(units, signals, params)
    blocks = partition(units, signals, dataclasses.replace(params, tau=tau))
    doc = partition_to_json_dict(units, blocks, params, tau) | {
        "trace_sha256": digest,
        "warmup_steps": args.warmup_steps,
        "metrics": [metrics[s.id].to_json_dict(s.id) for s in specs],
    }
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
    # `allocate --cost-model` needs a ratio for every configuration of the
    # candidate grid, and the factorized kernels only run on such a shape.
    if not shape.supports_factorized:
        raise UsageError(f"--dims needs two trailing axes longer than 1 to time factorized updates, got {args.dims!r}")
    _log(args, f"timing update kernels on shape {dims} ({args.reps} reps each)")
    model = measure_cost_model(shape, repetitions=args.reps)
    _write_output(model.to_json(), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = load(args.problem, "--problem", problem_from_json_dict)
    solution = load(args.plan, "--plan", solution_from_plan_dict)
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
    ) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
