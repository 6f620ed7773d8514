"""Pure-integer reference checks for every benchmark op.

Nothing here imports cyclealg: the dihedral group is rebuilt from raw image
tuples, matrices and homology values from the definitions, and verdicts from
the invariant order.  ``check(op, code, out, err)`` returns ``None`` when the
CLI result is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

EXIT_OK, EXIT_ERROR, EXIT_FAILED = 0, 2, 3

#: Level size above which the program may report the unital scale as
#: ``skipped`` instead of counting it (its enumeration bound).
ENUMERATION_BOUND = 64


# ---------------------------------------------------------------------------
# The dihedral group on raw image tuples
# ---------------------------------------------------------------------------

def compose_images(a, b):
    """Apply b first, then a."""
    return tuple(a[b[v] - 1] for v in range(len(b)))


@lru_cache(maxsize=None)
def dihedral_images(m):
    """Image tuples of theta_1 .. theta_{2m}: theta_{2k-1} = rho^(k-1), theta_{2k} = sigma theta_{2k-1}."""
    n = 2 * m
    rho = tuple((v - 2 - 1) % n + 1 for v in range(1, n + 1))
    sigma = tuple((2 - v - 1) % n + 1 for v in range(1, n + 1))
    out, power = [], tuple(range(1, n + 1))
    for _ in range(m):
        out.append(power)
        out.append(compose_images(sigma, power))
        power = compose_images(rho, power)
    return tuple(out)


@lru_cache(maxsize=None)
def label_of_images(m):
    return {img: j for j, img in enumerate(dihedral_images(m))}


def parity_pos(m, v):
    return (v - 1) // 2 if v % 2 else m + (v - 2) // 2


def compose_ref(inner, outer):
    """Group-ring convolution: signature of outer . inner (inner first)."""
    m = len(inner) // 2
    imgs, labels = dihedral_images(m), label_of_images(m)
    out = [0] * (2 * m)
    for a, ra in enumerate(outer):
        for b, rb in enumerate(inner):
            out[labels[compose_images(imgs[a], imgs[b])]] += ra * rb
    return out


def k0_ref(r):
    """sum_j r_j P(theta_j) in the odd-then-even vertex order, as int rows."""
    m = len(r) // 2
    mat = [[0] * (2 * m) for _ in range(2 * m)]
    for rj, img in zip(r, dihedral_images(m)):
        for v in range(1, 2 * m + 1):
            mat[parity_pos(m, img[v - 1])][parity_pos(m, v)] += rj
    return mat


def h1_ref(r):
    return sum(x if i % 2 == 0 else -x for i, x in enumerate(r))


def homrange_ref(r):
    """(lo, hi, step) of the homology values over the shift family of r."""
    step = len(r)
    base = h1_ref(r)
    return base - step * min(r[0::2]), base + step * min(r[1::2]), step


def needed_ref(r, src_mults):
    """Vertex multiplicities (vertex order) the standard embedding of r occupies."""
    m = len(r) // 2
    need = [0] * (2 * m)
    for rj, img in zip(r, dihedral_images(m)):
        for v in range(1, 2 * m + 1):
            need[img[v - 1] - 1] += rj * src_mults[v - 1]
    return need


def prime_set(n):
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Stationary towers
# ---------------------------------------------------------------------------

def scale_contains_split(m, d, s, k):
    """1/m (+) 1/m (+) k/(md) in the unital joint scale, by the split rule.

    Level T realizes the unital homology values {-(md)^T, -(md)^T + 2, .., (md)^T};
    h = k/(md) is contained iff h s^T is one of them for some T.  Integrality
    needs at most log2(md) levels, after which parity is settled one level on.
    """
    md = m * d
    if s == 0:
        return k == 0
    for level in range(md.bit_length() + 2):
        num = k * s ** level
        if num % md:
            continue
        value, cap = num // md, md ** level
        if abs(value) <= cap and (value - cap) % 2 == 0:
            return True
    return False


def verdict_ref(a, b):
    """(verdict, witness) by K0 primes, then H1 primes, then extremeness."""
    if prime_set(a["m"] * a["d"]) != prime_set(b["m"] * b["d"]):
        return "not_isomorphic", "k0_supernatural_data"
    if prime_set(a["s"]) != prime_set(b["s"]) or (a["s"] == 0) != (b["s"] == 0):
        return "not_isomorphic", "h1_group"
    if (abs(a["s"]) == a["m"] * a["d"]) != (abs(b["s"]) == b["m"] * b["d"]):
        return "not_isomorphic", "joint_scale_boundedness"
    return "isomorphic", None


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------

def _range_matches(got, lo, hi, step):
    """A homology range reported as a list or as {lo, hi, step}."""
    if isinstance(got, dict):
        return (got.get("lo"), got.get("hi"), got.get("step")) == (lo, hi, step)
    return got == list(range(lo, hi + 1, step))


def _check_level(level_no, entry, shape, composite, m):
    if entry.get("level") != level_no or entry.get("vertex_mults") != shape:
        return f"level {level_no}: wrong header"
    if composite is None:
        if entry.get("composite_signature") is not None:
            return "level 1 carries a composite"
    else:
        if entry.get("composite_signature") != composite:
            return f"level {level_no}: composite {entry.get('composite_signature')} != {composite}"
        if entry.get("k0_matrix") != k0_ref(composite):
            return f"level {level_no}: k0_matrix differs"
        if entry.get("h1") != h1_ref(composite):
            return f"level {level_no}: h1 differs"
        if not _range_matches(entry.get("homology_range"), *homrange_ref(composite)):
            return f"level {level_no}: homology_range differs"
    scale = entry.get("unital_scale")
    if not isinstance(scale, dict):
        return f"level {level_no}: unital_scale missing"
    if "skipped" in scale:
        return None if min(shape) > ENUMERATION_BOUND else \
            f"level {level_no}: unital_scale skipped below the enumeration bound"
    uniform = len(set(shape)) == 1
    n = shape[0]
    count = math.comb(n + 2 * m - 1, 2 * m - 1) if uniform else 0
    if scale.get("element_count") != count:
        return f"level {level_no}: element_count {scale.get('element_count')} != {count}"
    h_values = scale.get("h_values")
    if uniform and not _range_matches(h_values, -n, n, 2):
        return f"level {level_no}: h_values differ"
    if not uniform and h_values not in ([], {}):
        return f"level {level_no}: non-uniform level has h_values"
    return None


def check_explicit(op, report):
    spec = op["spec"]
    m, shapes, embs = spec["m"], spec["shapes"], spec["embeddings"]
    result = report["result"]
    levels = result.get("levels")
    if result.get("mode") != "explicit" or not isinstance(levels, list) or len(levels) != len(shapes):
        return "explicit report has the wrong levels"
    composite = None
    for i, (entry, shape) in enumerate(zip(levels, shapes)):
        if i:
            composite = embs[0] if composite is None else compose_ref(composite, embs[i - 1])
        reason = _check_level(i + 1, entry, shape, composite, m)
        if reason:
            return reason
    return None


def check_stationary(op, report):
    m, d, s = op["tower"]["m"], op["tower"]["d"], op["tower"]["s"]
    md = m * d
    result = report["result"]
    if result.get("tower") != op["tower"]:
        return "tower echo differs"
    if result["k0"].get("supernatural") != {str(p): "inf" for p in prime_set(md)}:
        return "k0 supernatural data differ"
    h1 = result["h1"]
    want_kind = "trivial" if s == 0 else "localization"
    if h1.get("kind") != want_kind or h1.get("primes") != ([] if s == 0 else prime_set(s)):
        return "h1 group differs"
    extreme = abs(s) == md
    if result.get("extreme") is not extreme:
        return "extreme flag differs"
    if result.get("homologically_limited") is not (s != 0 and not extreme):
        return "homologically_limited flag differs"
    want = [k for k in range(-md, md + 1) if scale_contains_split(m, d, s, k)]
    if result["joint_scale_sample"].get("contained") != want:
        return "joint_scale_sample differs from the split rule"
    return None


def check_compare(op, report):
    verdict, witness = verdict_ref(op["towers"][0], op["towers"][1])
    result = report["result"]
    if result.get("verdict") != verdict or result.get("witness") != witness:
        return f"verdict {result.get('verdict')}/{result.get('witness')} != {verdict}/{witness}"
    return None


def check_compose(op, report):
    result = report["result"]
    want = compose_ref(op["inner"], op["outer"])
    if result.get("composed") != want or result.get("h1") != h1_ref(want):
        return "composed signature differs"
    return None


def check_homrange(op, report):
    r = op["signature"]
    result = report["result"]
    if result.get("signature") != r or result.get("h1") != h1_ref(r):
        return "homrange echo differs"
    if not _range_matches(result.get("homology_range"), *homrange_ref(r)):
        return "homology_range differs"
    return None


def check_fromk0h1(op, report):
    r = op["signature"]
    result = report["result"]
    if result.get("realizable") is not True:
        return f"realizable matrix refused: {result.get('reason')}"
    if result.get("signature") != r or result.get("h1") != h1_ref(r):
        return "recovered signature differs"
    if result.get("k0_matrix") != k0_ref(r):
        return "k0_matrix differs"
    return None


def check_verify(op, report):
    result = report["result"]
    if result.get("ok") is not True:
        return f"verify {op['target']} reported ok={result.get('ok')}"
    target, p = op["target"], op["params"]
    if target in ("lemma22", "lemma31"):
        if result.get("m") != p["m"] or result.get("trials") != p["trials"] \
                or result.get("seed") != p["seed"]:
            return "harness echo differs"
    if target == "lemma22" and not result.get("max_deviation", 1.0) <= p["tol"]:
        return "lemma22 deviation above tolerance"
    if target == "lemma31":
        rows = result.get("rows")
        if not isinstance(rows, list) or [r.get("trial") for r in rows] != list(range(p["trials"])):
            return "lemma31 needs one row per trial"
        devs = [r.get("entry_deviation") for r in rows]
        if not all(isinstance(x, float) and 0.0 <= x < math.inf for x in devs):
            return "lemma31 deviations must be finite and nonnegative"
        if result.get("max_entry_deviation") != max(devs) or \
                result.get("within_epsilon") is not (max(devs) <= result.get("epsilon", -1)):
            return "lemma31 summary disagrees with its rows"
        if p["delta"] == 0 and max(devs) > 1e-9:
            return "lemma31 at delta 0 deviates"
    if target == "example23" and not all(result.get("assertions", {}).values()):
        return "example23 assertion failed"
    if target == "composition-oracle":
        pairs = (2 * p["m"]) ** 2
        if (result.get("pairs"), result.get("matches"), result.get("mismatches")) != (pairs, pairs, []):
            return "composition oracle mismatches"
    if target == "lemma42-roundtrip":
        count = (p["max_entry"] + 1) ** (2 * p["m"])
        if (result.get("count"), result.get("failures")) != (count, []):
            return "roundtrip count or failures differ"
    return None


CHECKS = {
    "explicit": check_explicit,
    "stationary": check_stationary,
    "compare": check_compare,
    "compose": check_compose,
    "homrange": check_homrange,
    "fromk0h1": check_fromk0h1,
    "verify": check_verify,
}


def check(op, code, out, err):
    """None if the CLI's (exit code, stdout, stderr) is right for ``op``, else a reason."""
    refusal = op.get("refusal")
    if refusal is not None:
        if code != EXIT_ERROR or out or refusal not in err:
            return f"expected refusal {refusal!r} with exit 2, got exit {code}: {err.strip()[:120]}"
        return None
    want_code = op.get("exit", EXIT_OK)
    if code != want_code:
        return f"exit {code} != {want_code}: {err.strip()[:120]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON report: {exc}"
    if not isinstance(report, dict) or not isinstance(report.get("result"), dict):
        return "report has no result object"
    try:
        return CHECKS[op["kind"]](op, report)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
