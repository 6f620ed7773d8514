"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import subprocess
import sys
import time

from conftest import (
    FULL_ENUM_LIMIT,
    brute_scale_contains,
    cli_battery,
    enumerate_S,
    signatures_with_entries_at_most,
    unital_h1_contains_split,
    unital_h1_set_full,
)

from cyclealg.limits import (
    LimitScaleQuery,
    StationaryMatroidTower,
    decide_isomorphism,
    h1_limit,
    unital_joint_scale_contains,
)
from cyclealg.matrix_model import (
    MatrixAlgebraModel,
    composition_oracle_report,
    entrywise_partial_isometry_report,
    nonregular_embedding_example,
)
from cyclealg.signatures import (
    Signature,
    h1,
    homology_range,
    k0_is_rigid_type,
    k0_matrix,
    k0h1_roundtrip_report,
)


def _verdict(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_dihedral_oracle_agreement():
    """All ordered pairs of multiplicity-one embeddings compose as the group predicts."""
    start = time.perf_counter()
    r3 = composition_oracle_report(3)
    r4 = composition_oracle_report(4)
    elapsed = time.perf_counter() - start
    ok = r3["ok"] and r4["ok"] and r3["matches"] == 36 and r4["matches"] == 64 \
        and elapsed < 10.0
    _verdict("1 dihedral/oracle agreement", ok,
             f"36+64 exact matches in {elapsed:.2f}s")


def test_criterion_2_k0h1_roundtrip():
    """Signature recovery from (matrix, homology value) is exact, exhaustively."""
    r3 = k0h1_roundtrip_report(3, max_entry=2)
    r4 = k0h1_roundtrip_report(4, max_entry=2)
    ok = r3["ok"] and r3["count"] == 3 ** 6 and r4["ok"] and r4["count"] == 3 ** 8
    _verdict("2 K0+H1 roundtrip", ok,
             f"{r3['count']} signatures at m=3, {r4['count']} at m=4, zero failures")


def test_criterion_3_homology_range():
    """Homology ranges equal the brute-force fibre values; sizes follow d + 1."""
    checked = 0
    for m in (3, 4):
        for sig in signatures_with_entries_at_most(m, 2):
            fibre = k0_is_rigid_type(k0_matrix(sig))
            assert list(homology_range(sig)) == sorted(h1(s) for s in fibre)
            checked += 1
    sizes_ok = True
    for m in (3, 4):
        for d in range(0, 11):
            for p in range(d + 1):
                sig = Signature(m, (p, d - p) * m)
                sizes_ok &= len(homology_range(sig)) == d + 1
    _verdict("3 homology range", sizes_ok,
             f"{checked} exhaustive fibre agreements; constant-signature sizes d+1 up to d=10")


def test_criterion_4_nonregular_example():
    """The concrete 4-cycle embedding data verifies all three claims numerically."""
    vs, report = nonregular_embedding_example()
    distances_ok = max(report["v_partial_isometry_distances"]) <= 1e-9
    regular_ok = all(report["v_regular"])
    witness = report["max_minimal_compression_distance"]
    product_ok = (not report["product_locally_regular"]) and witness >= 0.1
    _verdict("4 nonregular example numerics",
             distances_ok and regular_ok and product_ok,
             f"max v-distance {max(report['v_partial_isometry_distances']):.1e}, "
             f"compression witness {witness:.3f}")


def test_criterion_5_entrywise_partial_isometries():
    """1000 seeded trials at m=3 with vertex multiplicities up to 4, deviation <= 1e-9."""
    start = time.perf_counter()
    runs = [
        (MatrixAlgebraModel(3, (4,) * 6), 400, 11),
        (MatrixAlgebraModel(3, (1, 2, 3, 4, 3, 2)), 300, 12),
        (MatrixAlgebraModel(3, (2,) * 6), 300, 13),
    ]
    total, worst = 0, 0.0
    for model, trials, seed in runs:
        report = entrywise_partial_isometry_report(model, trials=trials, tol=1e-9, seed=seed)
        total += report["trials"]
        worst = max(worst, report["max_deviation"])
        assert report["ok"]
    elapsed = time.perf_counter() - start
    ok = total == 1000 and worst <= 1e-9 and elapsed < 60.0
    _verdict("5 entrywise partial isometries", ok,
             f"{total} trials, max deviation {worst:.1e}, {elapsed:.1f}s")


def test_criterion_6_stationary_family_ledger():
    """The m=3 stationary family behaves as documented."""
    for d in range(1, 11):
        assert len(enumerate_S(3, d)) == d + 1
        v = decide_isomorphism(StationaryMatroidTower(3, d, 3 * d),
                               StationaryMatroidTower(3, d, -3 * d))
        assert v.isomorphic
    v = decide_isomorphism(StationaryMatroidTower(3, 4, 6), StationaryMatroidTower(3, 4, -6))
    assert v.isomorphic
    v = decide_isomorphism(StationaryMatroidTower(3, 4, 12), StationaryMatroidTower(3, 4, 6))
    assert not v.isomorphic and v.witness == "joint_scale_boundedness"
    v = decide_isomorphism(StationaryMatroidTower(3, 12, 30), StationaryMatroidTower(3, 12, 6))
    assert not v.isomorphic and v.witness == "h1_group"
    assert "Z[1/(2*3*5)]" in v.detail and "Z[1/(2*3)]" in v.detail
    for d in (2, 4, 8):
        assert h1_limit(StationaryMatroidTower(3, d, 0)).kind == "trivial"
    _verdict("6 stationary family ledger", True,
             "sizes d+1 up to 10; extreme pairs isomorphic; witnesses as documented")


def test_criterion_7_joint_scale_oracle():
    """Closed-form scale membership agrees exactly with signature enumeration.

    The brute side enumerates unital signatures in full up to total
    multiplicity 40 and uses the rotation/reflection split reduction beyond;
    the reduction itself is validated against the full enumeration first,
    including at totals 27 and 36 (the largest fully enumerated levels).
    """
    for total in list(range(1, 13)) + [27, 36]:
        assert total <= FULL_ENUM_LIMIT
        full = unital_h1_set_full(3, total)
        split = {k for k in range(-total - 9, total + 10)
                 if unital_h1_contains_split(k, total)}
        assert split == full, f"split reduction disagrees at total {total}"

    queries = 0
    for d in (1, 2, 3):
        for s in enumerate_S(3, d):
            tower = StationaryMatroidTower(3, d, s)
            md = 3 * d
            for t in (1, 2, 3):
                span = md ** t
                for k in range(-span - 12, span + 13):
                    got = bool(unital_joint_scale_contains(tower, LimitScaleQuery(k, t)))
                    want = brute_scale_contains(tower, k, t)
                    assert got == want, \
                        f"disagreement at d={d} s={s} k={k}/{md}^{t}: closed={got} brute={want}"
                    queries += 1
    _verdict("7 joint-scale oracle", True, f"{queries} queries, exact agreement")


def test_criterion_8_cli_determinism(tmp_path):
    """Repeated runs of every CLI command with fixed seed are byte-identical."""
    battery = cli_battery(tmp_path)
    for argv in battery:
        runs = [subprocess.run([sys.executable, "-m", "cyclealg", *argv],
                               capture_output=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, f"stdout differs for {argv}"
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].returncode == runs[1].returncode
    _verdict("8 CLI determinism", True, f"{len(battery)} commands, two runs each")
