"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro platforms                              # Table I summary
    repro solve -p hera -n 20 -a admv            # optimal schedule + value
    repro evaluate -p hera --schedule ..MvpD     # exact value of a schedule
    repro simulate -p hera -n 10 --runs 500      # Monte-Carlo vs analytic
    repro simulate -p hera --target-ci 0.01      # adaptive: certify ±1%
    repro simulate --backend array-api-strict    # pick the array backend
    repro sweep -p atlas --pattern decrease      # makespan vs n table
    repro sweep -p atlas --target-ci 0.01        # + certified validation
    repro dag generate --kind layered --seed 3   # random workflow DAG
    repro dag generate --kind join --sources 12  # APDCM'15 join graph
    repro dag optimize --kind layered --strategy search   # order search
    repro dag optimize --kind layered --cost-spread 1.0 \
        --strategy search --jobs 4               # heterogeneous costs
    repro dag sweep --seed 3                     # heuristics vs search
    repro serve --port 8080                      # persistent HTTP service
    repro figure 5 --fast                        # regenerate a paper figure
    repro table 1                                # regenerate Table I
    repro report --fast                          # paper-vs-measured claims

Every subcommand accepts ``--json`` to dump machine-readable output instead
of the text rendering.  ``solve``, ``simulate`` and ``dag optimize`` are
thin adapters over :mod:`repro.service.engine`: their flags become the
request an HTTP client sends to ``repro serve``, and ``--json`` prints
the body the service answers it with.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

from . import __version__
from .analysis import format_table, line_chart, placement_diagram
from .api import SCHEMA_VERSION
from .analysis.sweep import sweep_task_counts
from .chains import PAPER_TOTAL_WEIGHT, PATTERNS, load_chain
from .core import Schedule, evaluate_schedule
from .exceptions import InvalidParameterError, ReproError
from .experiments import ALGORITHM_LABELS, fig5, fig6, fig78, table1
from .obs import configure_logging, get_logger
from .platforms import PLATFORMS, TABLE1_ROWS, get_platform
from .service.engine import (
    FIELDS,
    Outcome,
    execute,
    generator_knobs,
    normalise,
    render,
    workflow,
)
from .simulation import get_backend

__all__ = ["main", "build_parser"]

logger = get_logger(__name__)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability flags, shared by every leaf subcommand."""
    g = p.add_argument_group("observability")
    g.add_argument(
        "--profile",
        action="store_true",
        help="print the instrumented run report (metrics + span times)",
    )
    g.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="write the profile document (JSON) here",
    )
    g.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON timeline here",
    )
    g.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable repro.* logging at this level (debug, info, ...)",
    )
    g.add_argument(
        "--progress",
        action="store_true",
        help="live progress lines on stderr (rounds, reps/s, ETA)",
    )
    g.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="append every progress event as one JSON line here",
    )


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-p",
        "--platform",
        default="hera",
        help=f"platform name ({', '.join(sorted(PLATFORMS))})",
    )
    p.add_argument(
        "--pattern",
        default="uniform",
        choices=sorted(PATTERNS),
        help="task weight pattern",
    )
    p.add_argument("-n", "--tasks", type=int, default=20, help="number of tasks")
    p.add_argument(
        "-w",
        "--total-weight",
        type=float,
        default=PAPER_TOTAL_WEIGHT,
        help="total computational weight in seconds",
    )
    p.add_argument(
        "--chain-file",
        default=None,
        help="load the task chain from a JSON file instead of a pattern",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Two-level checkpointing and verifications for linear task "
            "graphs (Benoit et al., PDSEC 2016)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("platforms", help="list the Table I platforms")
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("solve", help="compute an optimal schedule")
    _add_instance_args(p)
    p.add_argument("-a", "--algorithm", default="admv", help="adv*, admv*, admv")
    p.add_argument(
        "--breakdown",
        action="store_true",
        help="also print the expected-time waste breakdown",
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("evaluate", help="evaluate a fixed schedule exactly")
    _add_instance_args(p)
    p.add_argument(
        "--schedule",
        required=True,
        help="schedule string, one symbol per task: . p v M D",
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("simulate", help="Monte-Carlo a schedule vs analytic")
    _add_instance_args(p)
    p.add_argument("-a", "--algorithm", default="admv")
    p.add_argument("--schedule", default=None, help="override: fixed schedule string")
    p.add_argument(
        "--runs",
        type=int,
        default=None,
        help=(
            "replications: exact count for fixed-N campaigns (default "
            "1000), hard cap when --target-ci is set (default: the "
            "orchestrator's 1M cap, matching `repro sweep --target-ci`)"
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "adaptive precision: run rounds until the relative CI "
            "half-width on the mean reaches this target (e.g. 0.01 = ±1%%)"
        ),
    )
    p.add_argument(
        "--no-breakdown",
        action="store_true",
        help="omit the per-category time breakdown table",
    )
    p.add_argument(
        "--engine",
        default="batch",
        choices=("batch", "scalar"),
        help="batched vectorized engine (default) or the scalar oracle loop",
    )
    p.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "array-API backend for the batched kernel (numpy, "
            "array-api-strict, cupy, torch, or any registered name; "
            "default: $REPRO_BACKEND, else numpy)"
        ),
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the batched engine (default: in-process)",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="replications per vectorized chunk (batched engine)",
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser("sweep", help="normalized makespan versus task count")
    _add_instance_args(p)
    p.add_argument(
        "--algorithms",
        default="adv_star,admv_star,admv",
        help="comma-separated algorithm list",
    )
    p.add_argument("--max-n", type=int, default=50)
    p.add_argument("--step", type=int, default=5)
    p.add_argument(
        "--validate-runs",
        type=int,
        default=0,
        help="batched Monte-Carlo replications per cell (0 = no validation)",
    )
    p.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "validate each cell adaptively to this relative CI half-width "
            "(--validate-runs then caps the per-cell spend)"
        ),
    )
    p.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "array-API backend for the validation campaigns (default: "
            "$REPRO_BACKEND, else numpy)"
        ),
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the validation campaigns (echoed in --json output)",
    )
    p.add_argument("--chart", action="store_true", help="also render an ASCII chart")
    p.add_argument(
        "--cprofile", action="store_true", help="print cProfile hotspots"
    )
    p.add_argument("--json", action="store_true")
    _add_obs_args(p)

    p = sub.add_parser(
        "dag", help="general workflows: generate / optimize / sweep"
    )
    dag_sub = p.add_subparsers(dest="dag_command", required=True)

    def _add_dag_instance_args(q: argparse.ArgumentParser) -> None:
        from .dag.generate import GENERATORS, WEIGHT_DISTRIBUTIONS

        q.add_argument(
            "--kind",
            default="layered",
            choices=sorted(GENERATORS),
            help="workflow family to generate",
        )
        q.add_argument("--seed", type=int, default=0, help="generator seed")
        q.add_argument(
            "--weights",
            default=None,
            choices=WEIGHT_DISTRIBUTIONS,
            help="task-weight distribution (default: uniform)",
        )
        q.add_argument("--mean", type=float, default=None, help="mean task weight (s)")
        q.add_argument("--spread", type=float, default=None, help="weight dispersion")
        q.add_argument(
            "--cost-spread",
            type=float,
            default=None,
            help=(
                "per-task resilience-cost heterogeneity (0 = the paper's "
                "uniform costs; ~1 spans a decade of checkpoint costs)"
            ),
        )
        q.add_argument(
            "--cost-weights",
            default=None,
            choices=WEIGHT_DISTRIBUTIONS,
            help="cost-multiplier distribution (default: lognormal)",
        )
        # family-specific shape knobs (only the ones given are passed on)
        q.add_argument("--tasks", type=int, default=None)
        q.add_argument("--layers", type=int, default=None)
        q.add_argument("--density", type=float, default=None)
        q.add_argument("--branches", type=int, default=None)
        q.add_argument("--branch-length", type=int, default=None)
        q.add_argument("--arity", type=int, default=None)
        q.add_argument("--rows", type=int, default=None)
        q.add_argument("--cols", type=int, default=None)
        q.add_argument("--sources", type=int, default=None)
        q.add_argument(
            "--dag-file",
            default=None,
            help="load the workflow from a JSON file instead of generating",
        )

    q = dag_sub.add_parser("generate", help="generate a random workflow DAG")
    _add_dag_instance_args(q)
    q.add_argument("-o", "--output", default=None, help="write the JSON document here")
    q.add_argument("--json", action="store_true")
    _add_obs_args(q)

    q = dag_sub.add_parser(
        "optimize", help="best serialisation + chain schedule for a DAG"
    )
    _add_dag_instance_args(q)
    q.add_argument("-p", "--platform", default="hera")
    q.add_argument("-a", "--algorithm", default="admv", help="adv*, admv*, admv")
    q.add_argument(
        "--strategy",
        default="auto",
        help="auto, all, search, or a single heuristic order",
    )
    q.add_argument(
        "--processors",
        type=int,
        default=None,
        metavar="P",
        help=(
            "schedule onto P workers instead of serialising: "
            "(assignment, order) search with per-worker checkpoint "
            "placement (--method/--restarts/--iterations/--jobs apply)"
        ),
    )
    q.add_argument(
        "--method",
        default="hill_climb",
        help="search method: hill_climb, anneal, hybrid",
    )
    q.add_argument("--restarts", type=int, default=2, help="random restarts (search)")
    q.add_argument(
        "--iterations", type=int, default=400, help="annealing iterations (search)"
    )
    q.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes sharding the start climbs (search; the "
            "winning order is invariant in --jobs)"
        ),
    )
    q.add_argument(
        "--recombine",
        type=int,
        default=2,
        help="elite-order crossover children to climb (search; 0 disables)",
    )
    q.add_argument(
        "--certify",
        action="store_true",
        help="Monte-Carlo certify the winning order (adaptive, batched engine)",
    )
    q.add_argument(
        "--target-ci",
        type=float,
        default=0.01,
        metavar="FRACTION",
        help="certification precision (relative CI half-width)",
    )
    q.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="array-API backend for the certification campaign",
    )
    q.add_argument(
        "--no-estimate",
        action="store_true",
        help=(
            "skip the adaptive Monte-Carlo makespan estimate of the "
            "winning parallel plan (--processors only; --target-ci and "
            "--backend configure the estimate)"
        ),
    )
    q.add_argument("--json", action="store_true")
    _add_obs_args(q)

    q = dag_sub.add_parser(
        "sweep", help="heuristics vs search vs exhaustive over campaigns"
    )
    q.add_argument("--seed", type=int, default=0, help="campaign master seed")
    q.add_argument(
        "--full",
        action="store_true",
        help="all campaign instances with the full exact-polish budget",
    )
    q.add_argument(
        "--no-certify", action="store_true", help="skip the Monte-Carlo stamp"
    )
    q.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="array-API backend for the certification campaign",
    )
    q.add_argument("--json", action="store_true")
    _add_obs_args(q)

    p = sub.add_parser(
        "serve",
        help="run the persistent HTTP service (solve/simulate/dag + jobs)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="job-queue worker threads draining POST /jobs campaigns",
    )
    p.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help=(
            "content-addressed cache budget shared by response payloads "
            "and solver memo pools (0 disables caching)"
        ),
    )
    p.add_argument(
        "--log-level",
        default="info",
        metavar="LEVEL",
        help="repro.* logging level for request/job lines (default: info)",
    )

    p = sub.add_parser("figure", help="regenerate a paper figure (5, 6, 7, 8)")
    p.add_argument("number", type=int, choices=(5, 6, 7, 8))
    p.add_argument("--fast", action="store_true", help="coarser task grid")
    _add_obs_args(p)

    p = sub.add_parser("table", help="regenerate a paper table (1)")
    p.add_argument("number", type=int, choices=(1,))
    _add_obs_args(p)

    p = sub.add_parser(
        "report", help="paper-vs-measured claim report over all experiments"
    )
    p.add_argument("--fast", action="store_true", help="coarser task grid")
    p.add_argument("-o", "--output", default=None, help="also write to a file")
    _add_obs_args(p)

    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_platforms(args) -> str:
    if args.json:
        return json.dumps([p.as_dict() for p in TABLE1_ROWS], indent=2)
    return "\n\n".join(p.describe() for p in TABLE1_ROWS)


def _cmd_solve(args) -> str:
    outcome = _run("solve", args)
    if args.json:
        return render(outcome.document)
    solution = outcome.result
    out = solution.summary() + "\n" + placement_diagram(solution.schedule)
    if args.breakdown:
        evaluation = evaluate_schedule(
            solution.chain, solution.platform, solution.schedule
        )
        out += "\n" + evaluation.render_breakdown(solution.chain)
    return out


def _cmd_evaluate(args) -> str:
    instance = normalise("solve", endpoint_request("solve", args)).content
    chain, platform = instance["chain"], instance["platform"]
    schedule = Schedule.from_string(args.schedule)
    evaluation = evaluate_schedule(chain, platform, schedule)
    if args.json:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "evaluation",
                "platform": platform.name,
                "chain": chain.name,
                "weights": chain.as_list(),
                "schedule": schedule.to_string(),
                "expected_time": evaluation.expected_time,
                "normalized_makespan": evaluation.expected_time
                / chain.total_weight,
            },
            indent=2,
        )
    return (
        f"schedule {schedule.to_string()} on {platform.name}: "
        f"E[makespan] = {evaluation.expected_time:.2f}s "
        f"(normalized {evaluation.expected_time / chain.total_weight:.4f})"
    )


def _cmd_simulate(args) -> str:
    outcome = _run("simulate", args, n_jobs=args.jobs, chunk_size=args.chunk_size)
    if args.json:
        return render(outcome.document)
    c, mc = outcome.request.content, outcome.result
    label = (
        f"schedule {outcome.document['schedule']}"
        if c["schedule"]
        else f"optimal {c['algorithm']} schedule"
    )
    mode = (
        f"{c['engine']} engine"
        if c["target_ci"] is None
        else f"adaptive, target ±{c['target_ci']:.2%}"
    )
    if mc.backend != "numpy":
        mode += f", {mc.backend} backend"
    return (
        f"simulating {label} on {c['platform'].name} ({mode})\n"
        + mc.report(show_breakdown=not args.no_breakdown)
    )


def _cmd_sweep(args) -> str:
    platform = get_platform(args.platform)
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    grid = sorted(set([1] + list(range(args.step, args.max_n + 1, args.step))))
    validated = bool(args.validate_runs) or args.target_ci is not None
    if args.backend is not None:
        get_backend(args.backend)  # diagnose typos/missing installs up front
        if not validated:
            raise InvalidParameterError(
                "--backend selects where the Monte-Carlo validation "
                "campaigns run; enable them with --validate-runs or "
                "--target-ci"
            )

    profiler = cProfile.Profile() if args.cprofile else None
    if profiler:
        profiler.enable()
    sweep = sweep_task_counts(
        platform,
        pattern=args.pattern,
        task_counts=grid,
        algorithms=algorithms,
        total_weight=args.total_weight,
        validate_runs=args.validate_runs,
        validate_target_ci=args.target_ci,
        validate_seed=args.seed,
        validate_backend=args.backend,
    )
    if profiler:
        profiler.disable()

    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "platform": platform.name,
            "pattern": args.pattern,
            "seed": args.seed,
            # None when no validation campaign ran (nothing consumed a
            # backend); the resolved name otherwise — same echo contract
            # as `repro simulate`
            "backend": None,
            "rows": sweep.rows(),
            "header": sweep.header(),
        }
        if validated:
            doc["backend"] = get_backend(args.backend).name
            doc["validated_cells"] = sweep.validated_cells
            doc["all_cells_agree"] = sweep.all_cells_agree
        return json.dumps(doc, indent=2)
    out = [
        format_table(
            ["n"] + [ALGORITHM_LABELS.get(a, a) for a in sweep.algorithms],
            sweep.rows(),
            title=f"normalized makespan — {platform.name}, {args.pattern}",
        )
    ]
    if validated:
        out.append(sweep.validation_report())
    if args.chart:
        series = {
            ALGORITHM_LABELS.get(a, a): sweep.makespan_series(a)
            for a in sweep.algorithms
        }
        out.append(line_chart(series, x_label="number of tasks"))
    if profiler:
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(12)
        out.append(buf.getvalue())
    return "\n\n".join(out)


def _workflow_request(args: argparse.Namespace) -> dict:
    """``--dag-file`` as a ``dag`` document, else the generator flags."""
    if not args.dag_file:
        knobs = {
            knob: value
            for knob, value in vars(args).items()
            if knob in generator_knobs() and value is not None
        }
        return {"generator": {"kind": args.kind, "seed": args.seed, **knobs}}
    try:
        return {"dag": json.loads(Path(args.dag_file).read_text())}
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot read workflow file {args.dag_file!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(
            f"workflow file {args.dag_file!r} is not valid JSON: {exc}"
        ) from exc


def endpoint_request(endpoint: str, args: argparse.Namespace) -> dict:
    """The request an HTTP client would send for these flags: every flag
    named like a request field, plus the chain or DAG the flags name."""
    request = {
        name: getattr(args, name)
        for name in FIELDS[endpoint]
        if getattr(args, name, None) is not None
    }
    if endpoint == "dag/optimize":
        request.update(_workflow_request(args), estimate=not args.no_estimate)
    elif args.chain_file:
        chain = load_chain(args.chain_file)
        request.update(weights=chain.as_list(), chain=chain.name)
    return request


def _run(endpoint: str, args: argparse.Namespace, **run_options) -> Outcome:
    request = normalise(endpoint, endpoint_request(endpoint, args))
    return execute(request, **run_options)


def _cmd_dag_generate(args) -> str:
    dag, _ = workflow(**_workflow_request(args))
    doc = dag.as_dict()
    # provenance: meaningless for file-loaded DAGs (the flags didn't
    # produce the workflow), so both fields are nulled together.  NB:
    # "kind" here is the legacy generator-family key, not the unified
    # document kind — this doc is a model file consumed by --dag-file
    # and WorkflowDAG.from_dict, so the historical shape wins.
    doc.update(
        schema_version=SCHEMA_VERSION,
        kind=None if args.dag_file else args.kind,
        seed=None if args.dag_file else args.seed,
    )
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    if args.json:
        return json.dumps(doc, indent=2)
    path, length = dag.critical_path()
    lines = [
        f"{dag!r} (kind={doc['kind']}, seed={doc['seed']})",
        f"  total work {dag.total_weight:.1f}s over {dag.n} tasks, "
        f"{dag.graph.number_of_edges()} edges",
        f"  sources {len(dag.sources())}, sinks {len(dag.sinks())}, "
        f"critical path {length:.1f}s ({len(path)} tasks)",
    ]
    if dag.has_heterogeneous_costs():
        mult = [dag.cost_multiplier(v) for v in dag.graph]
        lines.append(
            f"  heterogeneous costs: multipliers in "
            f"[{min(mult):.2f}, {max(mult):.2f}]"
        )
    if args.output:
        lines.append(f"  written to {args.output}")
    return "\n".join(lines)


def _cmd_dag_optimize(args) -> str:
    outcome = _run("dag/optimize", args, n_jobs=args.jobs)
    if args.json:
        return render(outcome.document)
    c, result = outcome.request.content, outcome.result
    where = f"workflow {c['dag'].name} on {c['platform'].name}"
    if c["processors"] is not None:
        out = [
            f"{where} (processors {c['processors']}, seed {c['seed']})",
            result.solution.describe(),
            result.summary(),
        ]
        estimate = outcome.stamp
        if estimate is not None:
            status = "converged" if estimate.converged else "cap reached"
            out.append(
                f"  estimated E[makespan] = {estimate.mean:.2f}s "
                f"(±{estimate.relative_half_width:.2%}, "
                f"{estimate.reps_used} reps, {status}; "
                f"surrogate gap {estimate.relative_gap:+.2%})"
            )
        return "\n".join(out)
    solution = getattr(result, "solution", result)  # search or fixed order
    out = [
        f"{where} (strategy {c['strategy']}, seed {c['seed']})",
        solution.summary(),
        "  order: " + " -> ".join(str(v) for v in solution.order),
    ]
    if solution is not result:
        out.append(result.summary())
    elif outcome.stamp is not None:
        out.append(outcome.stamp.line())
    return "\n".join(out)

def _cmd_dag_sweep(args) -> str:
    from .experiments import dag_search

    if args.no_certify and args.backend is not None:
        raise InvalidParameterError(
            "--backend selects where the certification campaign runs; "
            "drop --no-certify to use it"
        )
    result = dag_search.run(
        fast=not args.full,
        seed=args.seed,
        backend=args.backend,
        certify=not args.no_certify,
    )
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "dag_sweep",
            "seed": args.seed,
            "backend": get_backend(args.backend).name
            if not args.no_certify
            else None,
        }
        doc.update(result.as_dict())
        return json.dumps(doc, indent=2)
    return result.render()


def _cmd_dag(args) -> str:
    handlers = {
        "generate": _cmd_dag_generate,
        "optimize": _cmd_dag_optimize,
        "sweep": _cmd_dag_sweep,
    }
    return handlers[args.dag_command](args)


def _cmd_serve(args) -> str:
    from .service import serve

    serve(
        args.host,
        args.port,
        workers=args.workers,
        cache_entries=args.cache_entries,
    )
    return "repro serve: stopped"


def _cmd_figure(args) -> str:
    if args.number == 5:
        return fig5.run(fast=args.fast).render()
    if args.number == 6:
        return fig6.run().render()
    if args.number == 7:
        return fig78.run_fig7(fast=args.fast).render()
    return fig78.run_fig8(fast=args.fast).render()


def _cmd_table(args) -> str:
    return table1.run().render()


def _cmd_report(args) -> str:
    from .experiments.report import generate_report

    text = generate_report(fast=args.fast)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return text


def _progress_line(event) -> str:
    """One human line per progress event, ETA-aware for ``mc.round``."""
    data = dict(event.data)
    if event.kind == "mc.round":
        bits = [
            f"mc.round {data.get('index', '?')}",
            f"reps={data.get('total_reps')}",
        ]
        rel = data.get("relative_half_width")
        if rel is not None:
            bits.append(f"rel_hw={rel:.4g}")
        if data.get("target") is not None:
            bits.append(f"target={data['target']:.4g}")
        rate = data.get("reps_per_s")
        if rate:
            bits.append(f"reps/s={rate:,.0f}")
        eta = data.get("eta_s")
        if eta is not None:
            bits.append(f"eta={eta:.1f}s")
        return " ".join(bits)
    pairs = " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in data.items()
    )
    return f"{event.kind} {pairs}".strip()


def _run_instrumented(handler, args, command: str) -> str:
    """Run one subcommand under a live registry + tracer + event bus and
    render the requested exports (``--profile`` report, ``--profile-out``
    JSON, ``--trace-out`` Chrome trace, ``--progress`` stderr lines,
    ``--events-out`` JSONL)."""
    from time import perf_counter

    from .obs import (
        EventBus,
        MetricsRegistry,
        ProgressRenderer,
        Tracer,
        build_profile,
        instrument,
        render_profile,
        span,
        write_profile,
    )

    registry = MetricsRegistry()
    tracer = Tracer()

    renderer = (
        ProgressRenderer() if getattr(args, "progress", False) else None
    )
    events_path = getattr(args, "events_out", None)
    events_file = open(events_path, "a") if events_path else None

    def on_event(event) -> None:
        if events_file is not None:
            events_file.write(
                json.dumps(event.as_dict(), separators=(",", ":"))
                + "\n"
            )
            events_file.flush()
        if renderer is not None:
            renderer.update(_progress_line(event))

    bus = (
        EventBus(on_emit=on_event)
        if (renderer is not None or events_file is not None)
        else None
    )
    t0 = perf_counter()
    try:
        with instrument(registry, tracer, events=bus), span(
            f"repro.{command}"
        ):
            out = handler(args)
    finally:
        if renderer is not None:
            renderer.finish()
        if events_file is not None:
            events_file.close()
    wall = perf_counter() - t0
    profile = build_profile(
        registry.snapshot(), tracer, command=command, wall_s=wall
    )
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
        logger.info("wrote Chrome trace to %s", args.trace_out)
    if args.profile_out:
        write_profile(profile, args.profile_out)
        logger.info("wrote profile JSON to %s", args.profile_out)
    if args.profile:
        out += "\n\n" + render_profile(profile, tracer)
        if not args.profile_out:
            out += "\n--- profile json ---\n" + json.dumps(profile, indent=2)
    return out


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "platforms": _cmd_platforms,
        "solve": _cmd_solve,
        "evaluate": _cmd_evaluate,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "dag": _cmd_dag,
        "serve": _cmd_serve,
        "figure": _cmd_figure,
        "table": _cmd_table,
        "report": _cmd_report,
    }
    command = args.command
    if command == "dag":
        command = f"dag.{args.dag_command}"
    observing = bool(
        getattr(args, "profile", False)
        or getattr(args, "profile_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "progress", False)
        or getattr(args, "events_out", None)
    )
    try:
        if observing:
            print(_run_instrumented(handlers[args.command], args, command))
        else:
            print(handlers[args.command](args))
    except (ReproError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
