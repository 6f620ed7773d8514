import enum
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (
    cli_battery,
    loop_scale_contains,
    signatures_with_entries_at_most,
    stationary_prefix,
)

import cyclealg.cli as cli
import cyclealg.limits as limits
from cyclealg.cli import MAX_HALF_LENGTH, main, parse_tower_spec
from cyclealg.errors import SpecValidationError
from cyclealg.limits import LimitScaleQuery, StationaryMatroidTower
from cyclealg.matrix_model import MAX_HARNESS_ENTRIES, MAX_ORACLE_HALF_LENGTH
from cyclealg.signatures import h1, k0_is_rigid_type, k0_matrix

STATIONARY = {"schema_version": 1, "m": 3, "mode": "stationary_matroid", "d": 4, "s": 6}
EXPLICIT = {
    "schema_version": 1,
    "m": 3,
    "mode": "explicit",
    "shapes": [[1, 1, 1, 1, 1, 1], [2, 2, 2, 2, 2, 2]],
    "embeddings": [[1, 1, 0, 0, 0, 0]],
}


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "cyclealg", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# -- spec validation ----------------------------------------------------------

def test_parse_stationary():
    mode, tower = parse_tower_spec(STATIONARY)
    assert mode == "stationary" and (tower.m, tower.d, tower.s) == (3, 4, 6)


def test_parse_explicit():
    mode, tower = parse_tower_spec(EXPLICIT)
    assert mode == "explicit" and len(tower.shapes) == 2


@pytest.mark.parametrize("patch,field", [
    ({"schema_version": 2}, "$.schema_version"),
    ({"m": 2}, "$.m"),
    ({"mode": "other"}, "$.mode"),
    ({"d": 0}, "$.d"),
    ({"s": 5}, "$.s"),
])
def test_parse_errors_carry_field_paths(patch, field):
    data = dict(STATIONARY)
    data.update(patch)
    with pytest.raises(SpecValidationError) as err:
        parse_tower_spec(data)
    assert err.value.field == field


@pytest.mark.parametrize("base,patch,field", [
    (STATIONARY, {"m": True}, "$.m"),
    (STATIONARY, {"d": True}, "$.d"),
    (STATIONARY, {"s": False}, "$.s"),
    (EXPLICIT, {"shapes": [[True] * 6, [2] * 6]}, "$.shapes[0]"),
    (EXPLICIT, {"embeddings": [[True, True, 0, 0, 0, 0]]}, "$.embeddings[0]"),
    (EXPLICIT, {"embeddings": [[1, 1, False, 0, 0, 0]]}, "$.embeddings[0]"),
])
def test_parse_rejects_bools(base, patch, field):
    # bool is a subclass of int: true and false would pass as 1 and 0 (d = 4 admits s = 0)
    with pytest.raises(SpecValidationError) as err:
        parse_tower_spec(dict(base, **patch))
    assert err.value.field == field


def test_parse_explicit_capacity_error():
    data = json.loads(json.dumps(EXPLICIT))
    data["shapes"][1] = [1, 1, 1, 1, 1, 1]
    with pytest.raises(SpecValidationError):
        parse_tower_spec(data)


#: Values that no spec field accepts, whatever its range: JSON non-integers.
NON_INTEGERS = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                         st.floats(allow_nan=False), st.lists(st.integers(0, 3), max_size=2))


@st.composite
def _mutated_spec(draw):
    """A valid spec with one value made invalid, and the field its refusal names."""
    m = draw(st.integers(3, 5))
    if draw(st.booleans()):
        d = draw(st.integers(1, 6))
        spec = {"schema_version": 1, "m": m, "mode": "stationary_matroid", "d": d,
                "s": draw(st.sampled_from(range(-m * d, m * d + 1, 2 * m)))}
        key = draw(st.sampled_from(["schema_version", "m", "mode", "d", "s"]))
        out_of_range = {
            "schema_version": st.integers(2, 9),
            "m": st.integers(-3, 2) | st.integers(MAX_HALF_LENGTH + 1, 10 ** 6),
            "d": st.integers(-3, 0),
            # a shift by less than 2m breaks s = md (mod 2m)
            "s": st.integers(1, 2 * m - 1).map(lambda k: spec["s"] + k),
        }.get(key, st.nothing())
        spec[key] = draw(NON_INTEGERS | out_of_range)
        return spec, f"$.{key}"
    levels = draw(st.integers(1, 3))
    spec = {"schema_version": 1, "m": m, "mode": "explicit",
            "shapes": [[2 ** i] * (2 * m) for i in range(levels)],
            "embeddings": [[1, 1] + [0] * (2 * m - 2)] * (levels - 1)}
    key = draw(st.sampled_from(["shapes", "embeddings"] if levels > 1 else ["shapes"]))
    i = draw(st.integers(0, len(spec[key]) - 1))
    row = list(spec[key][i])
    row[draw(st.integers(0, 2 * m - 1))] = draw(NON_INTEGERS | st.integers(-3, -1))
    spec[key] = spec[key][:i] + [row] + spec[key][i + 1:]
    return spec, f"$.{key}[{i}]"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutated_spec())
def test_one_bad_value_is_refused_at_its_field(tmp_path, capsys, case):
    spec, field = case
    assert main(["invariants", write_spec(tmp_path, "t.json", spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error ({field}): "), captured.err


@pytest.mark.parametrize("mode", [STATIONARY, EXPLICIT])
def test_spec_half_length_bound(tmp_path, capsys, mode):
    for m, code in ((MAX_HALF_LENGTH, 0), (MAX_HALF_LENGTH + 1, 2)):
        spec = dict(mode, m=m, d=1, s=m)
        if mode is EXPLICIT:
            spec.update(shapes=[[1] * (2 * m), [2] * (2 * m)],
                        embeddings=[[1, 1] + [0] * (2 * m - 2)])
        assert main(["invariants", write_spec(tmp_path, "t.json", spec), "--json"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.startswith("error ($.m): ") and "bound 64" in captured.err


@pytest.mark.parametrize("operation", ["compose", "homrange"])
def test_signature_half_length_bound(capsys, operation):
    for m, code in ((MAX_HALF_LENGTH, 0), (MAX_HALF_LENGTH + 1, 2)):
        sig = ",".join(["1"] * (2 * m))
        args = [sig, sig] if operation == "compose" else [sig]
        assert main(["signature", operation, *args, "--json"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and captured.err.startswith("error (signature): ")


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(limits, name)
    monkeypatch.setattr(limits, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("command,factorings", [("invariants", 2), ("compare", 4)])
def test_stationary_commands_factor_md_and_s_once(tmp_path, capsys, monkeypatch,
                                                  command, factorings):
    calls = _count_calls(monkeypatch, "prime_factors")
    spec = write_spec(tmp_path, "t.json", STATIONARY)
    assert main([command, *[spec] * (1 if command == "invariants" else 2), "--json"]) == 0
    assert len(calls) == factorings


def test_explicit_invariants_check_capacity_once(tmp_path, capsys, monkeypatch):
    prefix = stationary_prefix(StationaryMatroidTower(3, 2, 0), 4)
    spec = write_spec(tmp_path, "t.json", {
        "schema_version": 1, "m": 3, "mode": "explicit",
        "shapes": [list(s.vertex_mults) for s in prefix.shapes],
        "embeddings": [list(e.r) for e in prefix.embeddings]})
    calls = _count_calls(monkeypatch, "_check_capacity")
    assert main(["invariants", spec, "--json"]) == 0
    assert len(calls) == 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_bounded(*argv, timeout=5):
    """The CLI in a subprocess under a 1 GiB address space and a timeout."""
    return subprocess.run([sys.executable, "-m", "cyclealg", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_limit_address_space,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


@pytest.mark.parametrize("levels", [8, 16])
def test_unbounded_report_refused_in_bounded_memory(tmp_path, levels):
    # level L of the (3, 10, 30) prefix holds 30^(L-1) per vertex: 30^(L-1) / 3 + 1 range values
    prefix = stationary_prefix(StationaryMatroidTower(3, 10, 30), levels)
    spec = write_spec(tmp_path, "t.json", {
        "schema_version": 1, "m": 3, "mode": "explicit",
        "shapes": [list(s.vertex_mults) for s in prefix.shapes],
        "embeddings": [list(e.r) for e in prefix.embeddings]})
    proc = run_bounded("invariants", spec, "--json")
    assert proc.returncode == 0, proc.stderr
    top = json.loads(proc.stdout)["result"]["levels"][-1]
    n = 30 ** (levels - 1)
    assert top["homology_range"] == {"lo": -n, "hi": n, "step": 6}
    assert top["unital_scale"] == {"element_count": math.comb(n + 5, 5),
                                   "h_values": {"lo": -n, "hi": n, "step": 2}}


# -- commands and exit codes ----------------------------------------------------

def test_invariants_stationary(tmp_path, capsys):
    spec = write_spec(tmp_path, "t.json", STATIONARY)
    assert main(["invariants", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 2
    assert report["result"]["k0"]["supernatural"] == {"2": "inf", "3": "inf"}
    assert report["result"]["h1"]["display"] == "Z[1/(2*3)]"
    assert report["result"]["extreme"] is False
    assert report["result"]["homologically_limited"] is True


def test_invariants_s0(tmp_path, capsys):
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, s=0))
    assert main(["invariants", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["h1"]["kind"] == "trivial"


@pytest.mark.parametrize("m,d,s", [(3, 4, 6), (3, 4, 12), (3, 4, 0), (3, 5, 3), (3, 3, -9),
                                   (4, 3, 4), (5, 7, -15), (6, 10, 36)])
def test_invariants_sample_matches_membership_loop(tmp_path, capsys, m, d, s):
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, m=m, d=d, s=s))
    assert main(["invariants", spec, "--json"]) == 0
    sample = json.loads(capsys.readouterr().out)["result"]["joint_scale_sample"]
    t = StationaryMatroidTower(m, d, s)
    assert sample["contained"] == [
        k for k in range(-m * d, m * d + 1)
        if loop_scale_contains(t, LimitScaleQuery(k, 1))]


def _run_invariants_bounded(tmp_path, d, s):
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, d=d, s=s))
    return run_bounded("invariants", spec, "--json", timeout=10)


def test_invariants_large_d_in_bounded_memory(tmp_path):
    c = 10 ** 9 + 1  # md = 3c, s = 3: c is the part of md coprime to s
    proc = _run_invariants_bounded(tmp_path, c, 3)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout)["result"]["joint_scale_sample"]
    assert sample["contained"] == [-3 * c, -c, c, 3 * c]


@pytest.mark.parametrize("d,s,field", [
    (10 ** 9, 30, "$.d"),  # admissible, but the sample has 6 * 10^9 + 1 numerators
    (10 ** 9, 3, "$.s"),   # md is even, so odd s is inadmissible
])
def test_invariants_large_d_refused_in_bounded_memory(tmp_path, d, s, field):
    proc = _run_invariants_bounded(tmp_path, d, s)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error ({field}): ") and proc.stdout == ""


@pytest.mark.parametrize("command", ["invariants", "compare"])
def test_unfactorable_d_refused_in_bounded_time(tmp_path, command):
    # md = 3 * (10^18 + 3), a prime cofactor past the reach of trial division up to 2^20
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, d=10 ** 18 + 3, s=3))
    proc = run_bounded(command, *[spec] * (1 if command == "invariants" else 2))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error ($.d): ") and proc.stdout == ""


def test_unfactorable_s_refused_in_bounded_time(tmp_path):
    p = 10 ** 18 + 3  # prime; md = 3^39 >= 3p, and both are odd multiples of 3
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, d=3 ** 38, s=3 * p))
    proc = run_bounded("invariants", spec)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error ($.s): ") and proc.stdout == ""


def test_large_prime_d_answered(tmp_path, capsys):
    p = 2 ** 40 - 87  # the largest prime below 2^40
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, d=p, s=3))
    assert main(["invariants", spec, "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["k0"]["supernatural"] == {"3": "inf", str(p): "inf"}
    assert result["h1"]["primes"] == [3]


def test_element_count_beyond_the_digit_limit_reported(tmp_path, capsys):
    # C(n + 5, 5) for n = 10^1000 has about 5000 digits, past Python's default 4300
    n = 10 ** 1000
    spec = write_spec(tmp_path, "t.json", {"schema_version": 1, "m": 3, "mode": "explicit",
                                          "shapes": [[n] * 6], "embeddings": []})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        count = str(math.comb(n + 5, 5))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(count) > limit
    for flags, line in ((["--json"], f'"element_count": {count},'),
                        ([], f"element_count: {count}")):
        assert main(["invariants", spec, *flags]) == 0
        assert line in [x.strip() for x in capsys.readouterr().out.splitlines()]
    assert sys.get_int_max_str_digits() == limit  # lifted for the report only


def test_spec_integer_past_the_digit_limit_refused(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"schema_version": 1, "m": 3, "mode": "stationary_matroid", '
                    f'"d": 1{"0" * 5000}, "s": 0}}', encoding="utf-8")
    assert main(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error ($): invalid JSON")


def test_invariants_explicit(tmp_path, capsys):
    spec = write_spec(tmp_path, "t.json", EXPLICIT)
    assert main(["invariants", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    levels = report["result"]["levels"]
    assert levels[0]["composite_signature"] is None
    assert levels[1]["composite_signature"] == [1, 1, 0, 0, 0, 0]


def test_invariants_explicit_identity_composite(tmp_path, capsys):
    data = {"schema_version": 1, "m": 3, "mode": "explicit",
            "shapes": [[1] * 6, [1] * 6],
            "embeddings": [[1, 0, 0, 0, 0, 0]]}
    spec = write_spec(tmp_path, "t.json", data)
    assert main(["invariants", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["levels"][1]["composite_signature"] == [1, 0, 0, 0, 0, 0]


def test_invariants_bad_spec_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "t.json", dict(STATIONARY, s=5))
    assert main(["invariants", spec]) == 2
    spec2 = tmp_path / "missing.json"
    assert main(["invariants", str(spec2)]) == 2


def test_compare_exit_codes(tmp_path):
    a = write_spec(tmp_path, "a.json", STATIONARY)
    b = write_spec(tmp_path, "b.json", dict(STATIONARY, s=-6))
    c = write_spec(tmp_path, "c.json", dict(STATIONARY, s=12))
    e = write_spec(tmp_path, "e.json", EXPLICIT)
    assert main(["compare", a, b]) == 0
    assert main(["compare", a, c]) == 3
    assert main(["compare", a, e]) == 2
    other_m = write_spec(tmp_path, "m4.json",
                         {"schema_version": 1, "m": 4, "mode": "stationary_matroid",
                          "d": 1, "s": 4})
    assert main(["compare", a, other_m]) == 2


def test_compare_witness_in_report(tmp_path, capsys):
    a = write_spec(tmp_path, "a.json", STATIONARY)
    c = write_spec(tmp_path, "c.json", dict(STATIONARY, s=12))
    main(["compare", a, c, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "not_isomorphic"
    assert report["result"]["witness"] == "joint_scale_boundedness"


def test_signature_compose(capsys):
    assert main(["signature", "compose", "0,0,1,0,0,0", "1,0,0,0,0,0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["composed"] == [0, 0, 1, 0, 0, 0]


def test_signature_homrange(capsys):
    assert main(["signature", "homrange", "1,1,1,1,1,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 2
    assert report["result"]["homology_range"] == {"lo": -6, "hi": 6, "step": 6}


def test_signature_homrange_matches_fibre_exhaustive(capsys):
    # every m = 3 signature with entries <= 2 (including zero), against its listed fibre
    for sig in signatures_with_entries_at_most(3, 2):
        assert main(["signature", "homrange", ",".join(map(str, sig.r)), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)["result"]["homology_range"]
        values = [h1(member) for member in k0_is_rigid_type(k0_matrix(sig))]
        assert values == sorted(values)
        assert got == {"lo": values[0], "hi": values[-1], "step": 6}, sig.r


def test_signature_fromk0h1(capsys):
    rows = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
    assert main(["signature", "fromk0h1", "--m", "3", "--k0", rows, "--h", "1",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["signature"] == [1, 0, 0, 0, 0, 0]
    # unrealizable homology value: error report, exit 3
    assert main(["signature", "fromk0h1", "--m", "3", "--k0", rows, "--h", "-1",
                 "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["realizable"] is False
    assert report["result"]["kind"] == "HomologyRangeError"
    # a nonnegative matrix of no rigid type is answered the same way
    not_rigid = "1,1,0,0,0,0;" + rows.split(";", 1)[1]
    assert main(["signature", "fromk0h1", "--m", "3", "--k0", not_rigid, "--h", "1",
                 "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["result"]["kind"] == "K0NotRigidTypeError"


def test_signature_fromk0h1_refuses_a_negative_matrix(capsys):
    # a malformed matrix is an input error, not a "not realizable" answer
    rows = "-1,0,0,0,0,0;" + ";".join(",".join(str(int(i == j)) for j in range(6))
                                      for i in range(1, 6))
    assert main(["signature", "fromk0h1", "--m", "3", f"--k0={rows}", "--h", "1",
                 "--json"]) == 2
    assert capsys.readouterr() == (
        "", "error (k0): vertex-multiplicity matrix must be nonnegative\n")


@pytest.mark.parametrize("argv,message", [
    (["compose", "1,0,0,0,0,0", "1,0,0,0,0,0,0,0"],
     "signatures of different cycle lengths: m=3 vs m=4"),
    (["compose", "--", "-1,0,0,0,0,0", "1,0,0,0,0,0"], "signature entry must be >= 0, got -1"),
    (["homrange", "--", "0,-2,0,0,0,0"], "signature entry must be >= 0, got -2"),
])
def test_signature_argument_refusals_name_their_field(capsys, argv, message):
    assert main(["signature", *argv]) == 2
    assert capsys.readouterr() == ("", f"error (signature): {message}\n")


def test_k0_value_with_a_leading_minus_reaches_the_matrix_check(capsys):
    rows = "-1,0,0,0,0,0;" + ";".join(",".join(str(int(i == j)) for j in range(6))
                                      for i in range(1, 6))
    for flag in ("--k0", "--k"):
        assert main(["signature", "fromk0h1", "--m", "3", flag, rows, "--h", "1"]) == 2
        assert capsys.readouterr() == (
            "", "error (k0): vertex-multiplicity matrix must be nonnegative\n")
    # a flag is still no value, and other commands and positionals are untouched
    assert main(["signature", "fromk0h1", "--m", "3", "--k0", "--json"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --k0: expected one argument\n")
    assert main(["signature", "compose", "--", "--k0", "-1,0,0,0,0,0"]) == 2
    assert capsys.readouterr().err == "error (signature): malformed signature '--k0'\n"
    assert main(["verify", "lemma22", "--k0", "-1,0,0"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --k0 -1,0,0\n")


def _rows(mat):
    return ";".join(",".join(str(x) for x in row) for row in mat)


def test_signature_fromk0h1_beyond_int64(capsys):
    big = 2 ** 63
    rows = _rows([[big if i == j else 0 for j in range(6)] for i in range(6)])
    assert main(["signature", "fromk0h1", "--m", "3", "--k0", rows, "--h", str(big),
                 "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["realizable"] is True
    assert result["signature"] == [big, 0, 0, 0, 0, 0]


#: Per input field holding a fibre of billions of members: the result key and its answer.
LONG_RANGE_ANSWERS = {
    "signature": ("homology_range", {"lo": -9 * 10 ** 9, "hi": 9 * 10 ** 9, "step": 6}),
    "k0": ("signature", [2 ** 24] * 6),
}


@pytest.mark.parametrize("argv,field", [
    (["homrange", "3000000000,0,3000000000,0,3000000000,0"], "signature"),
    (["fromk0h1", "--m", "3", "--k0", _rows([[2 ** 25 if i // 3 == j // 3 else 0
                                             for j in range(6)] for i in range(6)]),
      "--h", "0"], "k0"),
])
def test_long_homology_range_refused_in_bounded_memory(argv, field):
    proc = run_bounded("signature", *argv, "--json")
    assert proc.returncode == 0, proc.stderr
    key, answer = LONG_RANGE_ANSWERS[field]
    assert json.loads(proc.stdout)["result"][key] == answer


def test_homology_range_of_2_16_values_answered(capsys):
    n = 2 ** 16 - 1
    assert main(["signature", "homrange", f"{n},0,{n},0,{n},0", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["result"]["homology_range"]
    assert got == {"lo": -3 * n, "hi": 3 * n, "step": 6}
    assert (got["hi"] - got["lo"]) // got["step"] + 1 == 2 ** 16
    rows = _rows([[n if i // 3 == j // 3 else 0 for j in range(6)] for i in range(6)])
    assert main(["signature", "fromk0h1", "--m", "3", "--k0", rows, "--h", str(3 * n),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["signature"] == [n, 0, n, 0, n, 0]


def test_signature_fromk0h1_refuses_small_m(capsys):
    # refused at field m before the matrix is parsed
    assert main(["signature", "fromk0h1", "--m", "2", "--k0",
                 "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1", "--h", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error (m): cycle half-length must be >= 3, got 2\n"
    assert main(["signature", "fromk0h1", "--m", "1", "--k0", "not a matrix", "--h", "0"]) == 2
    assert capsys.readouterr().err.startswith("error (m): ")


def test_signature_fromk0h1_refuses_m_above_the_bound(capsys):
    # the bound of every other m, before the 130 x 130 matrix is parsed
    identity = _rows([[int(i == j) for j in range(130)] for i in range(130)])
    assert main(["signature", "fromk0h1", "--m", "65", "--k0", identity, "--h", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error (m): cycle half-length m=65 exceeds the bound 64\n"


def test_signature_malformed_exits_2(capsys):
    assert main(["signature", "homrange", "1,x,1"]) == 2


_SIG = "1,0,0,0,0,0"


@pytest.mark.parametrize("argv,message", [
    (["compose", "1,2,3,4,5,6"], "compose takes 2 signature arguments, got 1"),
    (["compose"], "compose takes 2 signature arguments, got 0"),
    (["compose", _SIG, _SIG, _SIG], "compose takes 2 signature arguments, got 3"),
    (["homrange"], "homrange takes 1 signature argument, got 0"),
    (["homrange", _SIG, _SIG], "homrange takes 1 signature argument, got 2"),
    (["fromk0h1", _SIG, "--m", "3", "--k0", "1", "--h", "1"],
     "fromk0h1 takes 0 signature arguments, got 1"),
])
def test_signature_refuses_a_wrong_argument_count(capsys, argv, message):
    assert main(["signature", *argv, "--json"]) == 2
    assert capsys.readouterr() == ("", f"error (signature): {message}\n")


def test_verify_targets(capsys):
    assert main(["verify", "lemma22", "--m", "3", "--dims", "2", "--trials", "5",
                 "--seed", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["ok"] is True
    assert main(["verify", "lemma31", "--m", "3", "--dims", "2", "--trials", "3",
                 "--delta", "1e-6", "--json"]) == 0
    capsys.readouterr()
    assert main(["verify", "example23", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["assertions"]["product_not_locally_regular"] is True
    assert main(["verify", "composition-oracle", "--m", "3", "--json"]) == 0
    capsys.readouterr()
    assert main(["verify", "lemma42-roundtrip", "--m", "3", "--max-entry", "1",
                 "--json"]) == 0
    capsys.readouterr()


def test_verify_refuses_four_cycle(capsys):
    for target in ("lemma22", "lemma31"):
        assert main(["verify", target, "--m", "2", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (m): ") and "m >= 3" in err


@pytest.mark.parametrize("target", ["lemma22", "lemma31"])
@pytest.mark.parametrize("m", ["-3", "0", "1"])
def test_verify_refuses_bad_m_at_its_field(capsys, target, m):
    # checked before dims, whose expected count 2m would be meaningless
    assert main(["verify", target, "--m", m, "--dims", "1,1", "--trials", "1"]) == 2
    assert capsys.readouterr() == ("", f"error (m): cycle half-length must be >= 2, got {m}\n")


def test_verify_refuses_large_model_in_bounded_memory():
    # N = 6 * 20000: the dense model would need hundreds of GiB
    proc = run_bounded("verify", "lemma22", "--dims", "20000", "--trials", "1")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error (dims): ") and proc.stdout == ""


@pytest.mark.parametrize("target", ["lemma22", "lemma31"])
@pytest.mark.parametrize("dims,code", [("128", 0), ("129", 2),
                                       (",".join(["128"] * 7 + ["129"]), 2)])
def test_verify_model_dimension_bound(capsys, target, dims, code):
    # at m = 4, dims 128 gives N = 1024, the largest model built
    assert main(["verify", target, "--m", "4", "--dims", dims, "--trials", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("error (dims): ")


@pytest.mark.parametrize("target", ["lemma22", "lemma31"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_refuses_trials_below_one(capsys, target, trials):
    assert main(["verify", target, "--m", "3", "--trials", trials]) == 2
    assert capsys.readouterr() == ("", f"error (trials): trials must be at least 1, got {trials}\n")


@pytest.mark.parametrize("argv,code", [
    # the largest harness op of the benchmark, 86 trials at N = 36
    (["lemma31", "--m", "6", "--dims", "3", "--trials", "86", "--delta", "1e-6"], 0),
    # one trial past the bound at N = 12
    (["lemma22", "--m", "3", "--dims", "2", "--trials", str(MAX_HARNESS_ENTRIES // 144 + 1)], 2),
])
def test_verify_refuses_trials_beyond_the_entry_bound(capsys, argv, code):
    assert main(["verify", *argv, "--json"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("error (trials): ")
        assert f"more than the bound {MAX_HARNESS_ENTRIES}" in captured.err


@pytest.mark.parametrize("flag,target,name", [
    ("--delta", "lemma31", "delta"), ("--epsilon", "lemma31", "epsilon"),
    ("--tol", "lemma22", "tolerance")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_refuses_non_finite_floats(capsys, flag, target, name, value):
    assert main(["verify", target, "--m", "3", "--trials", "1", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error ({flag[2:]}): {name} must be finite")


def test_verify_composition_oracle_refuses_beyond_its_bound(capsys):
    # the oracle's cost grows like m^3 log m; the bound is named in the refusal
    bound = MAX_ORACLE_HALF_LENGTH
    assert main(["verify", "composition-oracle", "--m", str(bound + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error (m): the composition oracle checks (2m)^2 pairs at "
                            f"O(m log m) each; m={bound + 1} exceeds the bound {bound}\n")
    assert main(["verify", "composition-oracle", "--m", str(bound), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["pairs"] == (2 * bound) ** 2


@pytest.mark.parametrize("max_entry", ["0", "-1"])
def test_verify_roundtrip_refuses_empty_runs(capsys, max_entry):
    assert main(["verify", "lemma42-roundtrip", "--m", "3", "--max-entry", max_entry]) == 2
    assert capsys.readouterr() == (
        "", f"error (max_entry): max_entry must be at least 1, got {max_entry}\n")


@pytest.mark.parametrize("argv,field,message", [
    (["composition-oracle", "--m", "2"], "m", "cycle half-length must be >= 3, got 2"),
    (["lemma42-roundtrip", "--m", "2"], "m", "cycle half-length must be >= 3, got 2"),
    (["lemma42-roundtrip", "--m", "9", "--max-entry", "1"], "m", "more than the bound 2^16"),
    (["lemma42-roundtrip", "--m", "7", "--max-entry", "3"], "max_entry",
     "more than the bound 2^16"),
    (["lemma31", "--delta", "-1"], "delta", "delta must be finite and nonnegative, got -1.0"),
    (["lemma22", "--tol", "0"], "tol", "tolerance must be finite and positive, got 0.0"),
    (["lemma22", "--dims", "0"], "dims", "vertex multiplicity must be >= 1, got 0"),
    (["lemma31", "--dims", "1,1,1,1,1,0"], "dims", "vertex multiplicity must be >= 1, got 0"),
    (["lemma22", "--seed", "-1"], "seed", "seed must be >= 0, got -1"),
    (["lemma31", "--seed", "-1"], "seed", "seed must be >= 0, got -1"),
])
def test_verify_refusals_name_their_flag(capsys, argv, field, message):
    assert main(["verify", *argv, "--trials", "1", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error ({field}): ") and message in captured.err


def test_cli_subprocess_determinism(tmp_path):
    # byte-identical output for identical inputs, flags and seed
    spec = write_spec(tmp_path, "t.json", STATIONARY)
    commands = [
        ("invariants", spec, "--json"),
        ("invariants", spec),
        ("verify", "lemma22", "--m", "3", "--dims", "2", "--trials", "5",
         "--seed", "7", "--json"),
        ("verify", "example23", "--json"),
        ("signature", "homrange", "2,1,2,1,2,1"),
    ]
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first == second
        assert first[0] == 0


# -- report emission -----------------------------------------------------------

class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Float(float):
    pass


class _Text(str):
    pass


_text = st.text(st.one_of(st.characters(), st.characters(categories=["Cc", "Cs"])))
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _text,
    st.integers(4300, 4400).map(lambda digits: -(10 ** digits) + 1),
    st.floats(), st.sampled_from([-0.0, 1e16, 5e-324, 2.2e-308, math.inf, -math.inf, math.nan]),
    st.sampled_from(list(_Level)), st.floats().map(_Float), _text.map(_Text),
    st.floats().map(np.float64),
)
#: Keys json converts to strings; in one dict they must sort against each other.
_keys = st.one_of(st.integers(), st.floats(), st.booleans())
_values = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple), st.just([]), st.just({}),
    st.lists(st.one_of(st.integers(), st.booleans(), st.sampled_from(list(_Level))), min_size=1),
    st.dictionaries(_text, children), st.dictionaries(_keys, children, max_size=3),
    st.dictionaries(st.none(), children), st.dictionaries(_text.map(_Text), children),
), max_leaves=25)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=_values)
def test_json_writer_matches_the_stdlib(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [
    object(), {"a": [1, {2, 3}]}, [[b"bytes"]], {"k": 1j}, [np.int64(1)],
    {"b": 1, "a": {1: 0, None: 0}}, {"a": {(1,): 0}}])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(value)
    assert str(got.value) == str(want.value)


def test_json_reports_are_the_stdlib_encoding(tmp_path, capsys):
    # --json prints exactly json.dumps(report, sort_keys=True, indent=2) and a newline
    battery = [argv for argv in cli_battery(tmp_path) if "--json" in argv]
    assert len(battery) == 9
    for argv in battery:
        assert main(argv) in (0, 3), argv  # compare reports a "not isomorphic" verdict
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv


def test_closed_stdout_exits_quietly(tmp_path):
    # a report of tens of thousands of lines, read one line at a time as ``| head -1`` does
    m = MAX_HALF_LENGTH
    spec = write_spec(tmp_path, "t.json", {
        "schema_version": 1, "m": m, "mode": "explicit",
        "shapes": [[1] * (2 * m), [2] * (2 * m)], "embeddings": [[1, 1] + [0] * (2 * m - 2)]})
    proc = subprocess.Popen([sys.executable, "-m", "cyclealg", "invariants", spec, "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=30) == 1
    assert err == b""


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "cyclealg" in capsys.readouterr().out
    # argparse usage errors map to exit code 2
    assert main(["verify", "nonsense"]) == 2


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # the parser is built once and reused: no call may see state left by another
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    good = write_spec(tmp_path, "good.json", STATIONARY)
    bad = write_spec(tmp_path, "bad.json", dict(STATIONARY, s=5))
    identity = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
    battery = [
        ["signature", "fromk0h1", "--m", "3", "--k0", identity, "--h", "1", "--json"],
        ["signature", "compose", "0,0,1,0,0,0", "1,0,0,0,0,0", "--json"],
        ["verify", "nonsense"],
        ["signature", "homrange", "1,1,1,1,1,1"],
        ["--version"],
        ["verify", "lemma22", "--m", "4", "--dims", "1", "--trials", "3", "--tol", "1e-6",
         "--seed", "5", "--json"],
        ["verify", "lemma22", "--json"],
        ["invariants", bad, "--json"],
        ["invariants", good, "--json"],
    ]
    got = []
    for argv in battery:
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    parser = cli._parser
    assert parser is not None
    assert main(["--version"]) == 0 and cli._parser is parser
    capsys.readouterr()
    for argv, result in zip(battery, got):
        assert result == run_cli(*argv), argv
    compose_input = json.loads(got[1][1])["input"]
    assert [compose_input[key] for key in ("m", "k0", "h")] == [None] * 3
    assert got[2][0] == 2 and got[3][0] == 0 and got[7][0] == 2 and got[8][0] == 0


def test_import_leaves_the_parser_unbuilt():
    proc = subprocess.run([sys.executable, "-c",
                           "import cyclealg.cli as cli; print(cli._parser is None)"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


# -- what a command loads ---------------------------------------------------------

FRESH_MAIN = """
import contextlib, io, json, sys
if sys.argv[1] == "preload":
    import cyclealg.matrix_model
import cyclealg.cli as cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "numpy": "numpy" in sys.modules,
                  "matrix_model": "cyclealg.matrix_model" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""


def fresh_main(argvs, preload=False):
    """Runs ``cli.main`` on each argv in a fresh interpreter; its codes, stdout and
    whether numpy, the matrix model and dataclasses were loaded."""
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, "preload" if preload else "-",
                           json.dumps(argvs)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_exact_commands_never_load_numpy(tmp_path):
    exact = [argv for argv in cli_battery(tmp_path)
             if argv[0] != "verify" or argv[1] == "lemma42-roundtrip"]
    refusal = ["compare", exact[0][1], exact[1][1]]   # stationary against explicit
    run = fresh_main(exact + [refusal])
    assert run["codes"] == [0, 0, 3, 0, 0, 0, 0, 2]
    assert run["numpy"] is False
    assert run["matrix_model"] is True
    assert run["dataclasses"] is False


def test_matrix_model_targets_load_numpy_and_print_the_same_bytes():
    argv = ["verify", "lemma22", "--m", "3", "--trials", "5", "--seed", "2", "--json"]
    lazy = fresh_main([argv])
    assert lazy["numpy"] is True
    assert lazy["dataclasses"] is False
    assert lazy == fresh_main([argv], preload=True)
    assert lazy["codes"] == [0] and json.loads(lazy["stdout"])["result"]["ok"] is True


ONE_MODULE = """
import sys
first = None
if sys.argv[1] == "before":
    import cyclealg.matrix_model as first
import cyclealg.cli as cli
import cyclealg
import cyclealg.matrix_model as mm
from cyclealg.matrix_model import MatrixAlgebraModel
assert cli.matrix_model is mm is sys.modules["cyclealg.matrix_model"]
assert cyclealg.matrix_model is mm
assert first is None or first is mm
assert mm.MatrixAlgebraModel is MatrixAlgebraModel
"""


@pytest.mark.parametrize("order", ["before", "after"])
def test_cli_binds_the_one_matrix_model_module(order):
    # a second copy would leave a monkeypatch on the module unseen by the cli
    proc = subprocess.run([sys.executable, "-c", ONE_MODULE, order],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


FAILED_LOAD = """
import contextlib, io, sys
sys.modules["numpy"] = None   # every import of numpy fails
import cyclealg.cli as cli
module = cli.matrix_model
for _ in range(2):
    try:
        cli.main(["verify", "example23"])
    except ModuleNotFoundError as exc:
        print(type(exc).__name__, exc)
del sys.modules["numpy"]
import cyclealg.matrix_model
assert cli.matrix_model is module is sys.modules["cyclealg.matrix_model"] is cyclealg.matrix_model
with contextlib.redirect_stdout(io.StringIO()):
    print(cli.main(["verify", "example23"]), file=sys.stderr)
"""


def test_a_failed_matrix_model_load_fails_again_on_every_call():
    # as a failed import is retried, while the process keeps its one module object
    proc = subprocess.run([sys.executable, "-c", FAILED_LOAD], capture_output=True, text=True)
    error = "ModuleNotFoundError import of numpy halted; None in sys.modules\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, error * 2, "0\n")
