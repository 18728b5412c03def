"""Command-line interface for the HybriMoE reproduction.

Subcommands::

    python -m repro.cli run       --model deepseek --strategy hybrimoe ...
    python -m repro.cli serve     --strategy hybrimoe --arrival-rate 4 --num-requests 32
    python -m repro.cli compare   --model qwen2 --cache-ratio 0.25 ...
    python -m repro.cli figure    fig8 [--full]
    python -m repro.cli sweep     --scenarios chat-multiturn,edge-decode --out out/sweep
    python -m repro.cli scenarios list
    python -m repro.cli info

``run`` executes one generation and prints its metrics; ``serve`` runs
a multi-request continuous-batching serving trace (Poisson arrivals at
``--arrival-rate`` requests/s, or an explicit ``--arrival-trace``) and
prints per-request queueing delay, TTFT and TBT percentiles plus the
aggregate (goodput, pooled percentiles) — with ``--replicas M
--router POLICY`` the trace is served by an M-replica fleet behind a
front-end router instead of one engine; ``compare`` races all
five frameworks on one workload; ``figure`` regenerates one paper
artifact of :data:`repro.experiments.figures.ARTIFACTS` (quick scale by
default); ``sweep`` fans registered scenarios x strategies x hardware
presets out over worker processes into a resumable output directory
(see :mod:`repro.scenarios`); ``scenarios list`` shows the registry;
``info`` lists presets.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.cache.base import available_policies
from repro.engine.factory import (
    available_strategies,
    make_engine,
    make_fleet,
    make_serving_engine,
)
from repro.errors import ConfigError
from repro.experiments.figures import ARTIFACTS, FULL_SCALE, QUICK_SCALE
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_workload
from repro.fleet.router import available_routers
from repro.hardware.faults import HARDWARE_FAULT_KINDS, FaultSchedule
from repro.hardware.platform_presets import HARDWARE_PRESETS
from repro.models.presets import MODEL_PRESETS, get_preset
from repro.rng import derive_rng
from repro.scenarios.spec import (
    EngineSpec,
    FleetSpec,
    ServingSpec,
    knob_fields,
    spec_from_knobs,
)
from repro.workloads.generator import (
    decode_workload,
    prefill_workloads,
    serving_workload,
)

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HybriMoE reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one generation and print metrics")
    run.add_argument("--prompt-len", type=int, default=128)
    run.add_argument("--decode-steps", type=int, default=32)
    _add_engine_flags(run)

    serve = sub.add_parser(
        "serve", help="serve a multi-request arrival trace with continuous batching"
    )
    serve.add_argument(
        "--num-requests",
        type=int,
        default=None,
        help="number of requests (default 8; inferred from --arrival-trace)",
    )
    serve.add_argument(
        "--arrival-rate",
        type=float,
        default=2.0,
        help="Poisson arrival rate in requests/s",
    )
    serve.add_argument(
        "--arrival-trace",
        default=None,
        help="comma-separated arrival instants (overrides --arrival-rate)",
    )
    serve.add_argument("--decode-steps", type=int, default=16)
    serve.add_argument(
        "--priority-mix",
        default=None,
        help="per-class arrival fractions, e.g. 'interactive=0.25,batch=0.75' "
        "(default: every request in the batch class — pure FCFS)",
    )
    _add_engine_flags(serve)

    serving_group = serve.add_argument_group(
        "serving", "continuous-batching loop knobs (one replica's scheduler)"
    )
    _knob_flag(serving_group, "--max-batch-size", "max_batch_size")
    _knob_flag(
        serving_group,
        "--prefill-chunk",
        "prefill_chunk_tokens",
        metavar="TOKENS",
        help="chunked prefill: bound each prefill step to TOKENS prompt "
        "tokens, interleaving slices with decode steps",
    )
    _knob_flag(
        serving_group,
        "--preempt",
        "preemption",
        action="store_true",
        help="allow arrived higher-priority requests to pause the "
        "lowest-priority decoder when the batch is full",
    )

    fleet_group = serve.add_argument_group(
        "fleet", "replica pool behind a front-end router"
    )
    _knob_flag(
        fleet_group,
        "--replicas",
        "replicas",
        help="replica fleet size (default 1 = the bare single serving "
        "engine; above 1 a FleetRouter spreads arrivals across identical "
        "replicas)",
    )
    _knob_flag(
        fleet_group,
        "--router",
        "router",
        help="fleet routing policy (only meaningful with --replicas > 1); "
        f"one of: {', '.join(available_routers())}",
    )

    faults_group = serve.add_argument_group(
        "faults", "replica and sub-replica fault injection"
    )
    faults_group.add_argument(
        "--fault-spec",
        default=None,
        metavar="SPEC",
        help="comma-separated fault windows 'kind:replica:at[:duration"
        "[:severity]]'; kinds crash (no duration) and slow (duration) "
        "are replica faults needing --replicas > 1, kinds "
        f"{', '.join(HARDWARE_FAULT_KINDS)} are sub-replica hardware "
        "faults (duration required, severity where the kind takes one)",
    )

    resilience_group = serve.add_argument_group(
        "resilience", "timeouts, overload shedding and retry policy"
    )
    _knob_flag(
        resilience_group,
        "--request-timeout",
        "request_timeout_s",
        metavar="SECONDS",
        help="end-to-end per-request budget from arrival; requests still "
        "unfinished past it are aborted (status timed_out)",
    )
    resilience_group.add_argument(
        "--shed",
        default=None,
        metavar="DEPTH[:RESUME]",
        help="overload shedding: refuse arrived queued requests beyond "
        "DEPTH, draining to RESUME (default DEPTH//2); lowest class "
        "sheds first, newest arrival first",
    )
    _knob_flag(
        resilience_group,
        "--max-retries",
        "max_retries",
        help="timeout retry budget per request (fleet only: retries are "
        "re-routed like failovers)",
    )
    _knob_flag(
        resilience_group,
        "--retry-backoff",
        "retry_backoff_s",
        metavar="SECONDS",
        help="base retry backoff; retry n waits backoff * 2**(n-1)",
    )

    compare = sub.add_parser("compare", help="race all frameworks on one workload")
    compare.add_argument("--model", default="deepseek", choices=sorted(MODEL_PRESETS))
    compare.add_argument("--cache-ratio", type=float, default=0.25)
    compare.add_argument("--stage", default="decode", choices=["prefill", "decode"])
    compare.add_argument("--prompt-len", type=int, default=128)
    compare.add_argument("--decode-steps", type=int, default=16)
    compare.add_argument("--num-layers", type=int, default=8)
    compare.add_argument("--seed", type=int, default=0)

    figure = sub.add_parser("figure", help="regenerate one paper artifact")
    figure.add_argument("name", choices=sorted(ARTIFACTS))
    figure.add_argument("--full", action="store_true", help="paper-scale grid")
    figure.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep",
        help="fan scenarios x strategies x hardware out into a resumable "
        "output directory",
    )
    sweep.add_argument(
        "--scenarios",
        required=True,
        metavar="NAMES",
        help="comma-separated registered scenario names "
        "(see 'scenarios list')",
    )
    sweep.add_argument(
        "--strategies",
        default=None,
        metavar="NAMES",
        help="comma-separated strategy override axis "
        "(default: each scenario's own strategy)",
    )
    sweep.add_argument(
        "--hardware",
        default=None,
        metavar="NAMES",
        help="comma-separated hardware-preset override axis "
        "(default: each scenario's own preset)",
    )
    sweep.add_argument(
        "--seeds",
        default=None,
        metavar="INTS",
        help="comma-separated seed override axis "
        "(default: each scenario's own seed list)",
    )
    sweep.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory: per-cell JSON under DIR/cells/, merged "
        "report at DIR/sweep.json; re-running resumes, skipping "
        "completed cells",
    )
    sweep.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    sweep.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="cap every cell's request/session count (CI smoke control)",
    )
    sweep.add_argument(
        "--steps",
        type=int,
        default=None,
        metavar="N",
        help="cap every cell's decode steps (CI smoke control)",
    )
    sweep.add_argument(
        "--force",
        action="store_true",
        help="re-run every cell even when a completed file exists",
    )

    scenarios = sub.add_parser("scenarios", help="scenario registry utilities")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser("list", help="list registered scenarios")

    sub.add_parser("info", help="list model and hardware presets")
    return parser


#: Resolved annotation of every spec knob (``int | None``, ``str``, ...).
_KNOB_HINTS = {
    name: hint
    for spec_type in (EngineSpec, ServingSpec, FleetSpec)
    for name, hint in typing.get_type_hints(spec_type).items()
}


def _knob_flag(parser, flag: str, knob: str, **extra) -> None:
    """Declare ``flag`` as the command-line spelling of spec knob ``knob``.

    The spec field supplies the value type, and the default is
    *absence* (``argparse.SUPPRESS``): only flags the user typed become
    spec overrides, so every default stays the spec's own. ``extra``
    adds what only a command line needs — help, a metavar, eager
    ``choices`` from the registries, or a different flag shape.
    """
    if "type" not in extra and "action" not in extra:
        hint = _KNOB_HINTS[knob]
        # `int | None` -> int: a flag that is present has a value.
        extra["type"] = next(
            t for t in typing.get_args(hint) or (hint,) if t is not type(None)
        )
    parser.add_argument(flag, dest=knob, default=argparse.SUPPRESS, **extra)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The :class:`EngineSpec` knobs, shared by ``run`` and ``serve``."""
    _knob_flag(parser, "--model", "model", choices=sorted(MODEL_PRESETS))
    _knob_flag(parser, "--strategy", "strategy", choices=available_strategies())
    _knob_flag(parser, "--cache-ratio", "cache_ratio")
    _knob_flag(parser, "--hardware", "hardware", choices=sorted(HARDWARE_PRESETS))
    _knob_flag(parser, "--num-layers", "num_layers")
    _knob_flag(parser, "--seed", "seed")
    _knob_flag(
        parser, "--num-gpus", "num_gpus", help="simulated GPU devices (one cache shard each)"
    )
    _knob_flag(
        parser,
        "--cpu-cache-capacity",
        "cpu_cache_capacity",
        metavar="SLOTS",
        help="routed-expert slots of host DRAM (default: unbounded — "
        "the classic two-tier engine); experts outside both caches "
        "spill to disk",
    )
    _knob_flag(
        parser,
        "--cpu-cache-policy",
        "cpu_cache_policy",
        choices=available_policies(),
        help="eviction policy of the DRAM tier",
    )


def _fleet_spec(args: argparse.Namespace) -> FleetSpec:
    """The one spec a ``run`` / ``serve`` namespace describes.

    ``run`` reads only its ``.engine``. Every default is the spec's
    own, so without ``--replicas`` it serves on the bare engine
    (``FleetConfig.replicas`` is 1).
    """
    valid = knob_fields(FleetSpec)
    knobs = {k: v for k, v in vars(args).items() if k in valid}
    if getattr(args, "shed", None) is not None:
        knobs["shed_queue_depth"], knobs["shed_resume_depth"] = _parse_shed(args.shed)
    return spec_from_knobs(FleetSpec, knobs, "repro")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _fleet_spec(args).engine
    if args.prompt_len < 1:
        raise ConfigError(f"--prompt-len must be >= 1, got {args.prompt_len}")
    engine = make_engine(spec=spec)
    rng = derive_rng(spec.seed, "cli", "prompt")
    prompt = rng.integers(0, engine.model.vocab_size, size=args.prompt_len)
    result = engine.generate(prompt, decode_steps=args.decode_steps)
    print(format_table([result.summary()], title="run result"))
    _print_tier_table(engine)
    return 0


def _print_tier_table(engine) -> None:
    """Per-tier cache table plus disk-link traffic (tiered runs only)."""
    runtime = engine.runtime
    if not runtime.tiered:
        return
    cache = runtime.cache
    rows = [
        {
            "tier": tier,
            "hit_rate": stats.hit_rate,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
        }
        for tier, stats in cache.tier_stats().items()
    ]
    print(format_table(rows, title="per-tier cache"))
    disk = runtime.clock.disk
    print(f"disk link: {len(disk)} reads, {disk.busy_time():.4f}s busy")


def _parse_priority_mix(text: str | None) -> dict[str, float] | None:
    """Parse ``'interactive=0.25,batch=0.75'`` into a mix mapping."""
    if text is None:
        return None
    mix: dict[str, float] = {}
    for part in text.split(","):
        name, _, fraction = part.partition("=")
        if not _ or not name.strip():
            raise ConfigError(
                f"bad --priority-mix entry {part!r}; expected CLASS=FRACTION"
            )
        try:
            mix[name.strip()] = float(fraction)
        except ValueError:
            raise ConfigError(
                f"bad --priority-mix fraction {fraction!r} for {name.strip()!r}"
            ) from None
    return mix


def _parse_shed(text: str) -> tuple[int, int | None]:
    """Parse ``--shed DEPTH[:RESUME]`` into the watermark pair."""
    depth_text, _, resume_text = text.partition(":")
    try:
        depth = int(depth_text)
        resume = int(resume_text) if resume_text else None
    except ValueError:
        raise ConfigError(
            f"bad --shed value {text!r}; expected DEPTH[:RESUME]"
        ) from None
    return depth, resume


def _serve_trace(args: argparse.Namespace, seed: int, vocab_size: int):
    """The arrival trace ``serve`` replays (explicit instants or Poisson)."""
    arrival_times, arrival_rate = None, args.arrival_rate
    if args.arrival_trace is not None:
        try:
            arrival_times = [float(t) for t in args.arrival_trace.split(",")]
        except ValueError:
            raise ConfigError(
                f"bad --arrival-trace {args.arrival_trace!r}; expected "
                f"comma-separated instants in seconds"
            ) from None
        arrival_rate = None
    return serving_workload(
        num_requests=args.num_requests,
        arrival_rate=arrival_rate,
        arrival_times=arrival_times,
        decode_steps=args.decode_steps,
        vocab_size=vocab_size,
        seed=seed,
        priority_mix=_parse_priority_mix(args.priority_mix),
    )


def _cmd_serve_fleet(
    args: argparse.Namespace, spec: FleetSpec, faults: FaultSchedule | None
) -> int:
    """``serve --replicas M``: route the trace through a replica fleet."""
    fleet = make_fleet(spec=spec, faults=faults)
    engine, serving = spec.engine, spec.serving
    report = fleet.serve_trace(
        _serve_trace(args, engine.seed, fleet.replicas[0].engine.model.vocab_size)
    )
    counts = report.assignment_counts()
    replica_rows = [
        {"replica": rid, "assigned": counts.get(rid, 0), **rep.summary()}
        for rid, rep in report.per_replica
    ]
    print(
        format_table(
            replica_rows,
            title=f"fleet: {spec.replicas}x {engine.strategy} on {engine.model} @ "
            f"{engine.cache_ratio:.0%} cache, router={spec.router}, "
            f"batch<={serving.max_batch_size}",
        )
    )
    print(format_table([report.summary()], title="fleet aggregate (merged)"))
    if len(report.merged.priority_classes()) > 1:
        print(format_table(report.merged.class_summary(), title="per-class SLO"))
    if report.num_failovers:
        print(f"failovers: {report.num_failovers}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = _fleet_spec(args)
    faults = None if args.fault_spec is None else FaultSchedule.parse(args.fault_spec)
    if spec.replicas > 1:
        return _cmd_serve_fleet(args, spec, faults)
    if spec.max_retries > 0:
        raise ConfigError(
            "--max-retries needs --replicas > 1 (retries are re-routed "
            "through the fleet)"
        )
    engine = spec.engine
    serving = make_serving_engine(spec=spec.serving, faults=faults)
    report = serving.serve_trace(
        _serve_trace(args, engine.seed, serving.engine.model.vocab_size)
    )
    topology = "" if engine.num_gpus == 1 else f", {engine.num_gpus} GPUs"
    if engine.cpu_cache_capacity is not None:
        topology += (
            f", DRAM<={engine.cpu_cache_capacity} ({engine.cpu_cache_policy})"
        )
    slo = ""
    if spec.serving.prefill_chunk_tokens is not None:
        slo += f", chunk={spec.serving.prefill_chunk_tokens}"
    if spec.serving.preemption:
        slo += ", preemption"
    print(
        format_table(
            report.per_request_rows(),
            title=f"serving report: {engine.strategy} on {engine.model} @ "
            f"{engine.cache_ratio:.0%} cache, batch<={spec.serving.max_batch_size}"
            f"{topology}{slo}",
        )
    )
    print(format_table([report.summary()], title="aggregate"))
    if len(report.priority_classes()) > 1:
        print(format_table(report.class_summary(), title="per-class SLO"))
    if engine.num_gpus > 1:
        cache = serving.engine.runtime.cache
        device_rows = [
            {
                "device": device,
                "hit_rate": stats.hit_rate,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
            }
            for device, stats in enumerate(cache.per_device_stats())
        ]
        print(format_table(device_rows, title="per-device cache"))
    _print_tier_table(serving.engine)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.stage == "decode":
        workload, metric = decode_workload(args.decode_steps, seed=args.seed), "mean_tbt_s"
    else:
        workload, metric = prefill_workloads(args.prompt_len, seed=args.seed)[0], "ttft_s"
    rows = []
    for strategy in available_strategies():
        result = run_workload(
            args.model, strategy, args.cache_ratio, workload, args.num_layers, args.seed
        )
        latency = result.mean_tbt if args.stage == "decode" else result.ttft
        rows.append({"strategy": strategy, "hit_rate": result.hit_rate, metric: latency})
    rows.sort(key=lambda r: r[metric])
    print(
        format_table(
            rows,
            title=f"{args.stage} comparison: {args.model} @ "
            f"{args.cache_ratio:.0%} cache (best first)",
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    artifact = ARTIFACTS[args.name]
    rows = artifact.measure(FULL_SCALE if args.full else QUICK_SCALE, args.seed)
    print(format_table(rows, title=artifact.title))
    return 0


def _split_csv(text: str | None) -> list[str] | None:
    """Split a comma-separated CLI axis into names (None stays None)."""
    if text is None:
        return None
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ConfigError(f"empty comma-separated list {text!r}")
    return names


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Imported lazily: only the sweep/scenarios commands need the
    # registry (and its built-in registrations).
    from repro.scenarios import run_sweep

    seeds_text = _split_csv(args.seeds)
    try:
        seeds = [int(s) for s in seeds_text] if seeds_text is not None else None
    except ValueError:
        raise ConfigError(f"bad --seeds value {args.seeds!r}; expected integers") from None
    report = run_sweep(
        _split_csv(args.scenarios),
        args.out,
        strategies=_split_csv(args.strategies),
        hardware=_split_csv(args.hardware),
        seeds=seeds,
        processes=args.processes,
        max_requests=args.requests,
        max_steps=args.steps,
        force=args.force,
        log=print,
    )
    print(format_table(report.rows(), title="sweep cells"))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import available_scenarios, get_scenario

    rows = []
    for name in available_scenarios():
        spec = get_scenario(name)
        rows.append(
            {
                "scenario": name,
                "kind": spec.kind,
                "workload": spec.workload.kind,
                "strategy": spec.strategy,
                "hardware": spec.hardware,
                "seeds": len(spec.seeds),
                "description": spec.description,
            }
        )
    print(format_table(rows, title="registered scenarios"))
    return 0


def _cmd_info() -> int:
    print("model presets:")
    for name in sorted(MODEL_PRESETS):
        print(f"  {get_preset(name).describe()}")
    print("hardware presets:", ", ".join(sorted(HARDWARE_PRESETS)))
    print("strategies:", ", ".join(available_strategies()))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        return _cmd_info()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
