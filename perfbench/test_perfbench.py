"""Self-tests of the benchmark: generators, reference checks, tracer and refusals.

Run from the repository root: python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cyclealg.cli as cli  # noqa: E402
import refs  # noqa: E402
from run import child_env, end_to_end, run_worker  # noqa: E402
from worker import Loop  # noqa: E402
from workloads import WORKLOADS, _signature, generate, materialize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cheap(ops):
    """The pass without its costly enumerations, with short harness runs, so tests run fast."""
    keep = []
    for op in ops:
        if op["kind"] == "explicit" and 12 < max(op["spec"]["shapes"][-1]) <= 64:
            continue
        if op["kind"] == "verify" and op["params"].get("trials", 0) > 60:
            op = copy.deepcopy(op)
            op["params"]["trials"] = 5
            op["argv"][op["argv"].index("--trials") + 1] = "5"
        keep.append(op)
    return keep


def _ops(workload, tmp_path, seed=1):
    return materialize(_cheap(generate(workload, seed)), tmp_path)


def _run_once(op, tmp_path):
    """(exit code, stdout, stderr) of one op through the real CLI."""
    (op,) = materialize([copy.deepcopy(op)], tmp_path)
    loop = Loop(cli, [op])
    captured = {}
    loop.run(0, lambda i, code, out: captured.update(code=code, out=out))
    return captured["code"], captured["out"], op


# -- generators -----------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_op_passes_its_check(workload, tmp_path):
    loop = Loop(cli, _ops(workload, tmp_path))
    for i in range(len(loop.ops)):
        loop.run(i)
    assert loop.failed == 0, loop.failures


# -- reference checks reject corrupted reports ------------------------------------------

def _first(workload, predicate):
    return next(op for op in generate(workload, 3) if predicate(op))


def _flip_explicit(report):
    level = next(e for e in report["result"]["levels"] if e.get("composite_signature"))
    level["composite_signature"][0] += 1


def _flip_stationary(report):
    sample = report["result"]["joint_scale_sample"]["contained"]
    sample.append(sample[-1] + 1 if sample else 0)


def _flip_compare(report):
    result = report["result"]
    result["verdict"] = "isomorphic" if result["verdict"] != "isomorphic" else "not_isomorphic"


def _flip_compose(report):
    report["result"]["composed"][0] += 1


def _flip_homrange(report):
    report["result"]["homology_range"].append(10 ** 9)


def _flip_fromk0h1(report):
    report["result"]["signature"][-1] += 1


def _flip_verify(report):
    report["result"]["ok"] = False


CORRUPTIONS = [
    ("explicit_towers", lambda op: op["kind"] == "explicit" and "refusal" not in op
     and len(op["spec"]["shapes"]) > 2 and max(op["spec"]["shapes"][-1]) <= 12, _flip_explicit),
    ("queries", lambda op: op["kind"] == "stationary" and op["tower"]["d"] < 50, _flip_stationary),
    ("queries", lambda op: op["kind"] == "compare" and "refusal" not in op, _flip_compare),
    ("queries", lambda op: op["kind"] == "compose", _flip_compose),
    ("queries", lambda op: op["kind"] == "homrange", _flip_homrange),
    ("queries", lambda op: op["kind"] == "fromk0h1", _flip_fromk0h1),
    ("verify_harness", lambda op: op.get("target") == "composition-oracle", _flip_verify),
    ("verify_harness", lambda op: op.get("target") == "lemma42-roundtrip", _flip_verify),
]


@pytest.mark.parametrize("workload,predicate,corrupt", CORRUPTIONS)
def test_reference_check_rejects_a_corrupted_report(workload, predicate, corrupt, tmp_path):
    code, out, op = _run_once(_first(workload, predicate), tmp_path)
    assert refs.check(op, code, out, "") is None
    report = json.loads(out)
    corrupt(report)
    assert refs.check(op, code, json.dumps(report), "") is not None


def test_ranges_may_be_lists_or_lo_hi_step():
    assert refs._range_matches([-3, 3, 9], -3, 9, 6)
    assert refs._range_matches({"lo": -3, "hi": 9, "step": 6}, -3, 9, 6)
    assert not refs._range_matches({"lo": -3, "hi": 15, "step": 6}, -3, 9, 6)


def test_lemma31_needs_one_row_per_trial(tmp_path):
    op = _first("verify_harness", lambda op: op.get("target") == "lemma31")
    op["params"]["trials"] = 4
    op["argv"][op["argv"].index("--trials") + 1] = "4"
    code, out, op = _run_once(op, tmp_path)
    assert refs.check(op, code, out, "") is None
    report = json.loads(out)
    report["result"]["rows"].pop()
    assert refs.check(op, code, json.dumps(report), "") is not None


# -- refusals ---------------------------------------------------------------------------

REFUSALS = [
    ("explicit_towers", lambda op: op.get("refusal") == "($.embeddings)"),
    ("queries", lambda op: op.get("refusal") == "refused:"),
    ("verify_harness", lambda op: op.get("refusal") == "m >= 3"),
]


@pytest.mark.parametrize("workload,predicate", REFUSALS)
def test_expected_refusals_count_as_passes(workload, predicate, tmp_path):
    (op,) = materialize([_first(workload, predicate)], tmp_path)
    loop = Loop(cli, [op])
    loop.run(0)
    assert (loop.attempted, loop.failed) == (1, 0)
    assert refs.check(op, 0, "{}", "") is not None  # accepting it would be the failure


# -- tracer -----------------------------------------------------------------------------

EXERCISED = {
    "explicit_towers": [
        "signatures.joint_scale_finite.calls", "signatures.joint_scale_finite.signatures_enumerated",
        "limits.finite_level_invariants.self_s", "cli.parse_tower_spec.total_s",
        "signatures.k0_matrix.calls", "signatures.signature_compose.calls",
        "signatures.homology_range.calls", "signatures.homology_range.elements",
        "cli.main.self_s", "cli.report_bytes",
    ],
    "queries": [
        "limits.unital_joint_scale_contains.calls", "limits.decide_isomorphism.calls",
        "limits.k0_limit.self_s", "limits.h1_limit.self_s", "signatures.k0_matrix.calls",
        "signatures.signature_compose.calls", "signatures.k0_is_rigid_type.calls",
        "signatures.signature_from_k0h1.calls", "signatures.homology_range.calls",
        "cli.main.self_s",
    ],
    "verify_harness": [
        "matrix_model.random_model_partial_isometry.calls", "matrix_model.realize_rigid.calls",
        "matrix_model.decompose_signature.calls", "matrix_model.compose_embeddings.calls",
        "matrix_model.locally_regular_check.calls",
        "matrix_model.distance_to_partial_isometry.calls",
        "matrix_model.ConcreteEmbedding.apply.calls",
        "matrix_model.MatrixAlgebraModel.support_mask.calls", "matrix_model.trial_us",
        "numpy.linalg.svd.calls", "numpy.linalg.qr.calls",
        "cycle_core.enumerate_automorphisms.calls", "cycle_core.dihedral_compose.calls",
        "cycle_core.DihedralElement.act.calls", "signatures.k0_matrix.calls",
        "signatures.k0_is_rigid_type.calls", "signatures.signature_from_k0h1.calls",
    ],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_layer_records_calls_on_its_workload(workload, tmp_path):
    # A fresh worker process, as in a real run: the program's per-m caches start empty.
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps(_ops(workload, tmp_path)), encoding="utf-8")
    spans_path = tmp_path / "spans.jsonl"
    summary = run_worker(ROOT, child_env(ROOT), ops_path, 0, 1, spans_path)
    assert summary["failed"] == 0, summary["failures"]
    metrics = summary["per_layer"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    assert spans and all(span[1] is not None for span in spans)
    if workload == "explicit_towers":
        assert metrics["limits.finite_level_invariants.calls_per_op"]["value"] == 2.0
    if workload == "queries":
        assert metrics["numpy.linalg.svd.calls"]["value"] == 0
        assert metrics["numpy.linalg.qr.calls"]["value"] == 0


def test_tracer_rebinds_every_imported_name_and_restores_it():
    import cyclealg.limits as limits
    from tracer import Tracer

    original = limits.finite_level_invariants
    tracer = Tracer().install()
    try:
        assert cli.finite_level_invariants is limits.finite_level_invariants
        assert cli.finite_level_invariants.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert cli.finite_level_invariants is original is limits.finite_level_invariants


def test_self_time_excludes_child_spans():
    from tracer import Tracer

    tracer = Tracer()

    def child():
        return sum(range(20000))

    wrapped_child = tracer._span_wrapper("child", child)
    parent = tracer._span_wrapper("parent", lambda: wrapped_child() + wrapped_child())
    parent()
    spans = {s[0]: s for s in tracer.spans}
    name, _, parent_index, start, end, self_s = spans["parent"]
    children = [s for s in tracer.spans if s[0] == "child"]
    assert all(s[2] == tracer.spans.index(spans["parent"]) for s in children)
    assert self_s == pytest.approx((end - start) - sum(s[4] - s[3] for s in children))


def test_end_to_end_names_match_benchmark_json():
    summary = {"latencies_s": [0.001 * i for i in range(1, 101)], "loop_s": 5.05,
               "peak_rss_kb": 40960}
    metrics = end_to_end(summary, 0.2)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        [(k, v["unit"]) for k, v in metrics.items()]
    assert all(v["value"] > 0 for v in metrics.values())


# -- known seed defect, left out of the workloads ---------------------------------------

@pytest.mark.xfail(strict=True, reason="fromk0h1 refuses realizable matrices with entries "
                   ">= 2^63 (int64 matrix check); add the 2^62 and 2^200 fromk0h1 classes "
                   "to the queries workload once this passes")
def test_fromk0h1_accepts_entries_beyond_int64(tmp_path):
    import random

    r = _signature(random.Random(0), 3, "about2^200", small_pair=True)
    k0 = ";".join(",".join(str(x) for x in row) for row in refs.k0_ref(r))
    op = {"kind": "fromk0h1", "signature": r,
          "argv": ["signature", "fromk0h1", "--m", "3", "--k0", k0, "--h", str(refs.h1_ref(r))]}
    code, out, op = _run_once(op, tmp_path)
    assert refs.check(op, code, out, "") is None
