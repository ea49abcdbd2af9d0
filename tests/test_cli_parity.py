"""CLI ``--json`` output is the engine's response body, byte for byte.

``repro solve`` / ``simulate`` / ``dag optimize`` and the HTTP routes run
one implementation (:mod:`repro.service.engine`).  Each case below is
a flag set next to the request an HTTP client would send for it; the
CLI's stdout must equal ``Engine().handle(endpoint, request).body``.
"""

from __future__ import annotations

import json

import pytest

from repro.chains import TaskChain, save_chain
from repro.cli import build_parser, endpoint_request, main
from repro.service import Engine
from repro.service.engine import FIELDS, normalise

FORK_JOIN = ("--kind", "fork_join", "--branches", "2", "--branch-length")

CASES = [
    # solve: a pattern, and each of the three algorithms
    ("solve", ("-p", "atlas", "--pattern", "highlow", "-n", "8"),
     {"platform": "atlas", "pattern": "highlow", "tasks": 8}),
    ("solve", ("-n", "6", "-a", "adv*"), {"tasks": 6, "algorithm": "adv*"}),
    ("solve", ("-n", "6", "-a", "admv*"), {"tasks": 6, "algorithm": "admv_star"}),
    ("solve", ("-n", "6", "-a", "admv", "-w", "1000"),
     {"tasks": 6, "algorithm": "ADMV", "total_weight": 1000}),
    # simulate: fixed runs, adaptive, a fixed schedule
    ("simulate", ("-n", "5", "--runs", "300", "--seed", "4"),
     {"tasks": 5, "runs": 300, "seed": 4}),
    ("simulate", ("-n", "5", "--target-ci", "0.05", "--seed", "2"),
     {"tasks": 5, "target_ci": 0.05, "seed": 2}),
    ("simulate", ("-n", "3", "--schedule", "vMD", "--runs", "200"),
     {"tasks": 3, "schedule": "vMD", "runs": 200}),
    # dag optimize: the CLI's one --seed feeds generator and search
    ("dag/optimize", ("--kind", "layered", "--tasks", "8", "--seed", "7"),
     {"generator": {"kind": "layered", "tasks": 8, "seed": 7}, "seed": 7}),
    ("dag/optimize", (*FORK_JOIN, "2", "-a", "adv*", "--strategy", "heavy_first"),
     {"generator": {"kind": "fork_join", "branches": 2, "branch_length": 2},
      "algorithm": "adv*", "strategy": "heavy_first"}),
    ("dag/optimize",
     ("--kind", "layered", "--tasks", "7", "--layers", "3", "--seed", "5",
      "-a", "adv*", "--strategy", "search", "--restarts", "1"),
     {"generator": {"kind": "layered", "tasks": 7, "layers": 3, "seed": 5},
      "seed": 5, "algorithm": "adv*", "strategy": "search", "restarts": 1,
      "method": "hill_climb"}),
    ("dag/optimize", ("--kind", "join", "--sources", "5", "--strategy", "search"),
     {"generator": {"kind": "join", "sources": 5}, "strategy": "search"}),
    ("dag/optimize",
     (*FORK_JOIN, "1", "-a", "adv*", "--certify", "--target-ci", "0.05"),
     {"generator": {"kind": "fork_join", "branches": 2, "branch_length": 1},
      "algorithm": "adv*", "certify": True, "target_ci": 0.05}),
    ("dag/optimize",
     (*FORK_JOIN, "2", "--seed", "1", "-a", "adv*", "--processors", "2",
      "--restarts", "1", "--target-ci", "0.05"),
     {"generator": {"kind": "fork_join", "branches": 2, "branch_length": 2,
                    "seed": 1},
      "seed": 1, "algorithm": "adv*", "processors": 2, "restarts": 1,
      "target_ci": 0.05}),
    ("dag/optimize",
     (*FORK_JOIN, "2", "--seed", "1", "-a", "adv*", "--processors", "2",
      "--restarts", "1", "--no-estimate"),
     {"generator": {"kind": "fork_join", "branches": 2, "branch_length": 2,
                    "seed": 1},
      "seed": 1, "algorithm": "adv*", "processors": 2, "restarts": 1,
      "estimate": False}),
]


#: search statistics that depend on which process's memo priced a state
MEMO_COUNTERS = (
    "exact_evaluations", "exact_cache_hits", "bound_evaluations",
    "bound_cache_hits", "states_priced", "state_cache_hits",
    "interval_solves", "interval_cache_hits",
)


def _cli_stdout(capsys, endpoint: str, flags) -> str:
    code = main([*endpoint.split("/"), *flags, "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize(
    "endpoint,flags,request_body", CASES,
    ids=[f"{e}:{' '.join(f)}" for e, f, _ in CASES],
)
def test_cli_json_is_the_engine_body(capsys, endpoint, flags, request_body):
    body = Engine().handle(endpoint, request_body).body
    assert _cli_stdout(capsys, endpoint, flags).encode("utf-8") == body


def test_chain_file_is_sent_as_weights(capsys, tmp_path):
    chain = TaskChain([100.0, 200.0, 50.0], name="filechain")
    save_chain(chain, tmp_path / "c.json")
    out = _cli_stdout(capsys, "solve", ("--chain-file", str(tmp_path / "c.json")))
    request = {"weights": [100.0, 200.0, 50.0], "chain": "filechain"}
    assert out.encode("utf-8") == Engine().handle("solve", request).body


def test_dag_file_is_sent_as_a_dag_document(capsys, tmp_path):
    path = tmp_path / "dag.json"
    main(["dag", "generate", *FORK_JOIN, "1", "--seed", "3", "-o", str(path)])
    capsys.readouterr()
    out = _cli_stdout(capsys, "dag/optimize", ("--dag-file", str(path), "-a", "adv*"))
    request = {"dag": json.loads(path.read_text()), "algorithm": "adv*"}
    assert out.encode("utf-8") == Engine().handle("dag/optimize", request).body
    assert json.loads(out)["generator"] is None


@pytest.mark.parametrize(
    "endpoint,flags,request_body",
    [
        ("simulate", ("-n", "5", "--runs", "300", "--seed", "4"),
         {"tasks": 5, "runs": 300, "seed": 4}),
        ("dag/optimize",
         ("--kind", "layered", "--tasks", "7", "--seed", "5", "-a", "adv*",
          "--strategy", "search", "--restarts", "1"),
         {"generator": {"kind": "layered", "tasks": 7, "seed": 5}, "seed": 5,
          "algorithm": "adv*", "strategy": "search", "restarts": 1}),
        ("dag/optimize",
         (*FORK_JOIN, "2", "-a", "adv*", "--processors", "2", "--restarts",
          "1", "--no-estimate"),
         {"generator": {"kind": "fork_join", "branches": 2,
                        "branch_length": 2},
          "algorithm": "adv*", "processors": 2, "restarts": 1,
          "estimate": False}),
    ],
    ids=["simulate", "search", "parallel"],
)
def test_jobs_keep_the_served_answer(
    capsys, endpoint, flags, request_body
):
    """``--jobs`` is a run-only option, outside the request: the answer
    is the served one.  Only ``n_jobs``, ``metrics`` and the memo
    counters differ, since each worker process prices with its own memo."""
    sharded = json.loads(_cli_stdout(capsys, endpoint, (*flags, "--jobs", "2")))
    served = Engine().handle(endpoint, request_body).document()
    for doc in (sharded, served):
        for key in ("metrics", "n_jobs", *MEMO_COUNTERS):
            doc.pop(key, None)
    assert sharded == served


@pytest.mark.parametrize(
    "argv,endpoint",
    [(["solve"], "solve"), (["simulate"], "simulate"),
     (["dag", "optimize"], "dag/optimize")],
)
def test_flag_defaults_are_the_normaliser_defaults(argv, endpoint):
    args = build_parser().parse_args(argv)
    flagged = [name for name in FIELDS[endpoint] if hasattr(args, name)]
    for name in flagged:
        assert getattr(args, name) == FIELDS[endpoint][name][0], name
    if endpoint == "dag/optimize":
        assert not args.no_estimate == FIELDS[endpoint]["estimate"][0]
        assert set(FIELDS[endpoint]) - set(flagged) == {"dag", "generator", "estimate"}
    else:
        assert set(FIELDS[endpoint]) - set(flagged) == {"weights", "chain"}
    # all-default flags and an empty request are the same computation
    request = endpoint_request(endpoint, args)
    assert normalise(endpoint, request).key == normalise(endpoint, {}).key
