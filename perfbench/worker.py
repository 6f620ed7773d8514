"""One workload in one fresh process: a closed loop over ``cyclealg.cli.main``.

Usage: python3 perfbench/worker.py OPS_JSON SECONDS TRACE SPANS_OUT

One client on one thread sends the next op only after the previous one
returned.  The untraced mode repeats whole passes over the ops until SECONDS
of loop time have passed; the traced mode runs one pass with the tracer
installed, then the same pass again without it.  Every result is checked
against :mod:`refs` outside the timed region.  The last stdout line is a
JSON summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import refs


class Loop:
    """Runs ops through ``cli.main`` and checks each distinct result once."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.verdicts = {}          # (op index, result digest) -> failure reason or None
        self.failures = {}          # op index -> first failure reason
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0

    def run(self, index, on_output=None):
        """One op; returns its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.ops[index]["argv"] + ["--json"])
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            code = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        started = time.perf_counter()
        stdout, stderr = out.getvalue(), err.getvalue()
        if on_output is not None:
            on_output(index, code, stdout)
        key = (index, hashlib.blake2b(f"{code}\0{stdout}\0{stderr}".encode()).digest())
        if key not in self.verdicts:
            self.verdicts[key] = refs.check(self.ops[index], code, stdout, stderr) \
                if isinstance(code, int) else code
        reason = self.verdicts[key]
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(index, reason)
        self.check_s += time.perf_counter() - started
        return latency


def timed_passes(loop, seconds):
    """Whole passes until ``seconds`` of loop time (checks excluded) have passed."""
    latencies = []
    start = time.perf_counter()
    while True:
        for i in range(len(loop.ops)):
            latencies.append(loop.run(i))
        elapsed = time.perf_counter() - start - loop.check_s
        if elapsed >= seconds:
            return latencies, elapsed


def traced_pass(loop):
    """One traced pass, then the same pass untraced; returns per-layer metrics."""
    from tracer import Tracer

    ops = loop.ops
    accepted = set()
    report_bytes = []

    def on_output(index, code, stdout):
        report_bytes.append(len(stdout.encode()))
        if code == refs.EXIT_OK and ops[index]["kind"] == "explicit":
            accepted.add(index)

    tracer = Tracer().install()
    try:
        traced = []
        for i in range(len(ops)):
            tracer.op_id = i
            traced.append(loop.run(i, on_output))
    finally:
        tracer.uninstall()
    untraced = [loop.run(i) for i in range(len(ops))]
    return tracer, layer_metrics(tracer, ops, accepted, report_bytes, sum(traced) / sum(untraced))


def layer_metrics(tracer, ops, accepted, report_bytes, slowdown):
    totals = tracer.totals()
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("signatures.joint_scale_finite", "limits.unital_joint_scale_contains",
                 "limits.decide_isomorphism", "signatures.k0_matrix",
                 "signatures.signature_compose", "signatures.k0_is_rigid_type",
                 "signatures.signature_from_k0h1", "signatures.homology_range",
                 "matrix_model.random_model_partial_isometry", "matrix_model.realize_rigid",
                 "matrix_model.decompose_signature", "matrix_model.compose_embeddings",
                 "matrix_model.locally_regular_check",
                 "matrix_model.distance_to_partial_isometry",
                 "matrix_model.ConcreteEmbedding.apply", "cycle_core.enumerate_automorphisms"):
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s, "s")
    for name in ("limits.finite_level_invariants", "limits.k0_limit", "limits.h1_limit",
                 "cli.main"):
        put(f"{name}.self_s", totals.get(name, (0, 0.0, 0.0))[1], "s")
    put("cli.parse_tower_spec.total_s", totals.get("cli.parse_tower_spec", (0, 0.0, 0.0))[2], "s")

    enumerated = counts["signatures.joint_scale_finite.signatures_enumerated"]
    put("signatures.joint_scale_finite.signatures_enumerated", enumerated, "count")
    put("signatures.joint_scale_finite.elements_per_signature",
        counts["signatures.joint_scale_finite.elements"] / enumerated if enumerated else 0.0,
        "ratio")
    put("signatures.homology_range.elements", counts["signatures.homology_range.elements"], "count")
    fli_in_accepted = sum(1 for s in tracer.spans
                          if s[0] == "limits.finite_level_invariants" and s[1] in accepted)
    put("limits.finite_level_invariants.calls_per_op",
        fli_in_accepted / len(accepted) if accepted else 0.0, "calls/op")
    put("cli.report_bytes", sum(report_bytes) / len(report_bytes), "bytes")
    for name in ("matrix_model.MatrixAlgebraModel.support_mask", "cycle_core.dihedral_compose",
                 "cycle_core.DihedralElement.act", "numpy.linalg.svd", "numpy.linalg.qr"):
        put(f"{name}.calls", counts[name], "count")

    trial_ops = {i for i, op in enumerate(ops)
                 if op.get("target") in ("lemma22", "lemma31") and "refusal" not in op}
    trial_time = sum(s[4] - s[3] for s in tracer.spans
                     if s[0] == "cli.main" and s[1] in trial_ops)
    trials = sum(ops[i]["params"]["trials"] for i in trial_ops)
    put("matrix_model.trial_us", trial_time / trials * 1e6 if trials else 0.0, "us")
    put("trace.ops_per_s_ratio", 1.0 / slowdown, "ratio")
    return metrics


def main(argv):
    ops_path, seconds, trace, spans_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    import cyclealg.cli as cli

    src = Path.cwd().resolve() / "src"
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"cyclealg imported from {cli.__file__}, not from {src}")
    ops = json.loads(Path(ops_path).read_text(encoding="utf-8"))
    loop = Loop(cli, ops)
    summary = {}
    if trace:
        tracer, summary["per_layer"] = traced_pass(loop)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        latencies, elapsed = timed_passes(loop, seconds)
        summary.update(latencies_s=latencies, loop_s=elapsed,
                       peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    summary.update(attempted=loop.attempted, failed=loop.failed,
                   failures={str(k): v for k, v in sorted(loop.failures.items())})
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
