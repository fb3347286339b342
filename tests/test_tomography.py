import copy
import dataclasses
import functools
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import qcore, tomography
from cohdist.protocol import MeasurementBasis, alice_measure, optimal_basis_pure
from cohdist.qcore import fidelity, partial_trace, projector, validate_density
from cohdist.states import family1, family2
from cohdist.tomography import (
    BASES,
    PRNG_ID,
    SHOTS_MAX,
    TomographyRecord,
    binomial_draw,
    derive_stream,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
)

import oracles
from sampling import random_density


# --- PRNG ---------------------------------------------------------------------

def test_splitmix64_reference_vector():
    # first outputs for seed 0 from the standard splitmix64 implementation
    s = oracles.SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_floats_in_unit_interval():
    s = oracles.SplitMix64(987654321)
    vals = [s.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert PRNG_ID == "splitmix64-sampler-v5"


def test_derive_stream_is_stable_and_distinct():
    assert derive_stream(42, 1, 2) == derive_stream(42, 1, 2)
    seen = {derive_stream(42, i, j) for i in range(10) for j in range(10)}
    assert len(seen) == 100
    assert derive_stream(42, 1, 2) != derive_stream(42, 2, 1)


@pytest.mark.parametrize("index", [np.uint64(3), np.int64(3), np.uint32(3)])
def test_derive_stream_reads_numpy_integer_scalars_as_ints(index):
    assert derive_stream(7, index) == derive_stream(7, 3) and type(derive_stream(7, index)) is int
    assert derive_stream(index, 7) == derive_stream(3, 7)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_batched_stream_uniforms_match_scalar_streams(seed):
    # the harness's (grid point g, target t) records on a 19 x 3 grid, each drawing on Pauli bases b = 0, 1, 2
    g, t = (a.ravel().astype(np.uint64) for a in np.meshgrid(np.arange(19), np.arange(3), indexing="ij"))
    got = tomography._basis_uniforms(derive_stream(seed, g, t))
    want = [[oracles.SplitMix64(derive_stream(derive_stream(seed, int(gi), int(ti)), b)).next_float() for b in range(3)]
            for gi, ti in zip(g, t)]
    assert got.tolist() == want


# --- binomial sampling ----------------------------------------------------------

def test_binomial_inversion_matches_exact_cdf():
    # k = min{k : F(k) >= u} against a math.comb oracle
    for n, p in ((10, 0.3), (50, 0.5), (400, 0.91), (2000, 0.02)):
        for u in (0.001, 0.25, 0.5, 0.75, 0.999):
            k = binomial_draw(n, p, u)
            assert oracles.binomial_cdf_exact(n, p, k) >= u
            if k > 0:
                assert oracles.binomial_cdf_exact(n, p, k - 1) < u


def test_binomial_inversion_stable_at_large_counts():
    # p = 0.5, n = 10^4 underflows a naive from-zero recursion
    k = binomial_draw(10_000, 0.5, 0.5)
    assert abs(k - 5000) <= 1


def test_binomial_degenerate_probabilities():
    assert binomial_draw(100, 0.0, 0.7) == 0
    assert binomial_draw(100, 1.0, 0.7) == 100
    # p and u must be real numbers, not a bool, a string, None or an array
    for p in (math.nan, 1.5, -0.2, -1e-300, 1.0 + 2.0**-52, "0.5", None, True, np.array([0.5])):
        with pytest.raises(ValueError, match="p must"):
            binomial_draw(100, p, 0.7)
    for u in (1.0, -0.1, math.nan, "0.5", None, True, np.array([0.5])):
        with pytest.raises(ValueError, match="u must"):
            binomial_draw(100, 0.5, u)


def test_binomial_normal_path_quantiles():
    n = 1_000_000
    sigma = math.sqrt(n * 0.25)
    assert binomial_draw(n, 0.5, 0.5) == n // 2
    k_hi = binomial_draw(n, 0.5, 0.9986501019683699)  # Phi(3)
    assert abs(k_hi - (n / 2 + 3 * sigma)) <= 2


def _edge_triples():
    """(n, p, u) over the sampler's edges, skewed random triples, then shuffled blocks of shared p, ~11k in all."""
    triples = [(n, p, u) for n in (1, 2, 10_000, 10_001, 10**6) for p in (1e-12, 1e-6, 1 - 1e-6, 0.0, 1.0)
               for u in (2.0**-53, 1 - 2.0**-53)]
    rng = np.random.default_rng(71)
    for _ in range(10_000):
        n = int(rng.choice([int(rng.integers(1, 60)), int(rng.integers(1, 10_001)), 10_000, 10_001, 10**5, 10**6]))
        p = float(rng.choice([rng.uniform(), 10 ** rng.uniform(-14, 0), 1 - 10 ** rng.uniform(-14, 0), 0.5, 1e-12]))
        u = float(rng.choice([rng.uniform(), 10 ** rng.uniform(-16, 0), 1 - 10 ** rng.uniform(-16, 0), 2.0**-53, 0.5]))
        triples.append((n, p, u))
    for n in (100, 10_000):  # ~40 p drawn 5 to 20 times each: the draws group by p, at 10_000 over several passes
        ps = np.concatenate([rng.uniform(size=30), 10 ** rng.uniform(-14, 0, 5), 1 - 10 ** rng.uniform(-14, 0, 5)])
        block = [(n, p, float(rng.uniform())) for p in ps.tolist() for _ in range(int(rng.integers(5, 21)))]
        rng.shuffle(block)
        triples += block
    return triples


def test_batched_sampler_matches_scalar_oracle_bit_for_bit():
    # full-support inversion up to 10_000 shots, the 100-halving normal path above
    triples = _edge_triples()
    by_n = {}
    for i, (n, _, _) in enumerate(triples):
        by_n.setdefault(n, []).append(i)
    got = [0] * len(triples)
    for n, idx in by_n.items():
        p, u = (np.array([triples[i][c] for i in idx]) for c in (1, 2))
        for i, k in zip(idx, tomography._binomial_draws(n, p, u).tolist()):
            got[i] = k
    assert got == [oracles.binomial_draw_oracle(n, p, u) for n, p, u in triples]
    assert [binomial_draw(n, p, u) for n, p, u in triples[:200]] == got[:200]


def _normal_branch_triples(rng, count):
    """(n, p, u) above 1e4 shots: the uniforms at 2**-53 k, 1 - 2**-53 k and 1/2 +- 2**-53 k (k = 1..50) at
    every n, then random triples, whose u come from a pool of 5,000 so the scalar oracle's halvings can be cached."""
    ns = (10_001, 10**5, 10**6, 10**9, 2**53, *rng.integers(10_002, 10**7, 3).tolist())
    k = np.arange(1, 51) * 2.0**-53
    edges = np.concatenate([k, 1.0 - k, 0.5 + k, 0.5 - k, [0.5]])
    triples = [(n, p, u) for n in ns for p, u in zip(rng.choice([0.5, 1e-15, 1 - 1e-15, 0.3], edges.size), edges)]
    tail = 10 ** rng.uniform(-16, 0, 500)
    pool = np.concatenate([rng.uniform(size=4_000), tail, 1 - tail[::-1]])
    pool = np.maximum(np.floor(pool * 2.0**53), 1.0) * 2.0**-53  # uniforms as the streams make them
    m = count - len(triples)
    tiny = 10 ** rng.uniform(-15, 0, m)
    p = np.choose(rng.integers(0, 3, m), [rng.uniform(size=m), tiny, 1 - tiny[::-1]])
    return triples + list(zip(rng.choice(ns, m).tolist(), p.tolist(), rng.choice(pool, m).tolist()))


def test_normal_draws_match_the_scalar_halvings(monkeypatch):
    # every draw above 1e4 shots is the oracle's: 100 halvings on Phi(z) = min(u, 1 - u), mirrored for u > 1/2
    monkeypatch.setattr(oracles, "normal_quantile", functools.cache(oracles.normal_quantile))
    triples = _normal_branch_triples(np.random.default_rng(72), 100_000)
    by_n = {}
    for i, (n, _, _) in enumerate(triples):
        by_n.setdefault(n, []).append(i)
    got = [0] * len(triples)
    for n, idx in by_n.items():
        p, u = (np.array([triples[i][c] for i in idx]) for c in (1, 2))
        for i, k in zip(idx, tomography._binomial_draws(n, p, u).tolist()):
            got[i] = k
    assert got == [oracles.binomial_draw_oracle(n, p, u) for n, p, u in triples]


@pytest.mark.parametrize("n, slack", [(10**6, 1), (2**53, 2)])
def test_normal_draws_are_symmetric_in_the_upper_tail(n, slack):
    # Phi^-1(1 - u) = -Phi^-1(u): at p = 1/2 the draws at u and 1 - u sit either side of n/2 (an inversion
    # of Phi rounded near 1 gave z = 8.1607 for Phi^-1(1 - 2**-53) = 8.2095, up to 2.3e6 counts off at 2**53).
    # From 2**52 up, n p + z sigma rounds to an integer and + 1/2 then rounds to even, so each draw may gain one.
    u = np.arange(1, 51) * 2.0**-53
    k = tomography._binomial_draws(n, np.full(100, 0.5), np.concatenate([u, 1.0 - u]))
    assert np.abs(k[:50] + k[50:] - n).max() <= slack


@pytest.mark.parametrize("n", [1, 2, 3, 10, 257, 4_999, 9_999, 10_000])
def test_inversion_window_holds_the_full_support_cdf(n):
    # left of the window the full-support F is below 2**-53, the least uniform drawn, so no draw lands there;
    # inside it the window's sums lack at most e^-40 of mass, so they stay within 2**-56 of F; right of it both are 1.0
    rng = np.random.default_rng(n)
    ps = np.concatenate([10 ** rng.uniform(-14, 0, 40), 1 - 10 ** rng.uniform(-14, 0, 40), rng.uniform(size=40),
                         [0.5, 1e-12, 1e-6, 1 - 1e-6, 1 / (n + 1), 1 - 1 / (n + 1), 5e-324, 1 - 2.0**-53]])
    k0, cdf = tomography._window_cdf(n, ps)
    for first, row, p in zip(k0.tolist(), cdf, ps.tolist()):
        full = oracles.binomial_cdf_full(n, p)
        k = np.arange(first, first + row.size)
        inside = (k >= 0) & (k <= n)
        assert (full[: max(first, 0)] < 2.0**-53).all(), p
        assert np.abs(row[inside] - full[k[inside]]).max() < 2.0**-56, p
        assert (row[k < 0] == 0.0).all() and (row[k > n] == 1.0).all() and row[-1] == 1.0
        assert (full[min(k[-1], n) :] == 1.0).all(), p


def test_windowed_inversion_draws_the_full_support_counts():
    # 1.1e6 draws at n from 1 to 1e4, each min{k : F(k) >= u} over the full support with F summed from 0. The uniforms
    # are multiples of 2**-53 as the streams make them: a third spread evenly, a third log-uniform down to 2**-53 and a
    # third mirrored below 1, so both tails of every CDF are searched, plus the edges 2**-53 and 1 - 2**-53 at every p.
    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 10, 64, 257, 1_000, 4_999, 9_999, 10_000):
        ps = np.concatenate([10 ** rng.uniform(-14, 0, 10), 1 - 10 ** rng.uniform(-14, 0, 10), rng.uniform(size=15),
                             [0.5, 1 / (n + 1), 1 - 1 / (n + 1), 5e-324, 1 - 2.0**-53]])
        tail = np.minimum(np.maximum(np.floor(2.0 ** rng.uniform(0, 53, (ps.size, 916))), 1.0), 2.0**53 - 1) * 2.0**-53
        even = np.maximum(np.floor(rng.uniform(size=(ps.size, 916)) * 2.0**53), 1.0) * 2.0**-53
        u = np.concatenate([tail, 1.0 - tail, even, np.tile([2.0**-53, 1.0 - 2.0**-53], (ps.size, 1))], axis=1)
        order = rng.permutation(u.size)  # the draws of one p in shuffled order, as a pass of the runner makes them
        k = np.empty(u.size, dtype=np.int64)
        k[order] = tomography._binomial_draws(n, np.repeat(ps, u.shape[1])[order], u.ravel()[order])
        for p, row, got in zip(ps.tolist(), u, k.reshape(u.shape)):
            assert np.array_equal(got, np.searchsorted(oracles.binomial_cdf_full(n, p), row)), (n, p)


def test_inversion_draws_make_no_libm_call(monkeypatch):
    # up to 1e4 shots the sampler uses only +, -, *, /, floor and sqrt, all correctly rounded under IEEE 754, so its
    # counts do not depend on the build's libm: with exp, log, log1p and lgamma raising it draws the same counts
    rng = np.random.default_rng(29)
    blochs = rng.uniform(-1.0, 1.0, (200, 3)) / math.sqrt(3.0)  # inside the Bloch ball
    streams = rng.integers(0, 2**63, 200, dtype=np.uint64)
    ps = np.concatenate([rng.uniform(size=100), 10 ** rng.uniform(-14, 0, 50), 1 - 10 ** rng.uniform(-14, 0, 50)])
    u = np.concatenate([rng.uniform(size=100), [2.0**-53, 0.5, 1 - 2.0**-53] * 25, 1 - 10 ** rng.uniform(-16, 0, 25)])
    shots = (1, 7, 1_000, 9_999, 10_000)

    def draw():
        return [tomography._pauli_counts(blochs, n, streams) for n in shots] + [
            tomography._binomial_draws(n, ps, u) for n in shots
        ]

    expected = draw()

    def libm(*args, **kwargs):
        raise AssertionError("the inversion path called libm")

    for module, name in [(math, "lgamma"), (math, "exp"), (math, "log"), (math, "log1p"), (np, "exp"), (np, "log")]:
        monkeypatch.setattr(module, name, libm)
    for want, got in zip(expected, draw(), strict=True):
        assert np.array_equal(want, got)


def test_shots_beyond_the_exact_range_are_rejected():
    with pytest.raises(ValueError):
        binomial_draw(SHOTS_MAX + 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        simulate_counts(np.eye(2) / 2, SHOTS_MAX + 1, seed=1)
    assert binomial_draw(SHOTS_MAX, 0.5, 0.5) == SHOTS_MAX // 2


# --- simulate_counts ------------------------------------------------------------

def test_counts_deterministic_outcomes():
    rec = simulate_counts(projector(oracles.KET_H), 5000, seed=1)
    assert rec.counts["Z"] == (5000, 0)
    rec = simulate_counts(projector(oracles.KET_Y_PLUS), 5000, seed=1)
    assert rec.counts["Y"] == (5000, 0)


def test_counts_maximally_mixed_golden():
    rec = simulate_counts(np.eye(2) / 2, 10**6, seed=42)
    # frozen golden values for this (state, shots, seed); all within 3 sigma = 1500
    assert rec.counts == {"X": (499742, 500258), "Y": (499994, 500006), "Z": (499402, 500598)}
    for b in BASES:
        assert abs(rec.counts[b][0] - 500_000) < 1500


def test_counts_bit_identical_reruns():
    a = simulate_counts(random_density(np.random.default_rng(3), 2), 12345, seed=99)
    b = simulate_counts(random_density(np.random.default_rng(3), 2), 12345, seed=99)
    assert a == b


def test_counts_input_validation():
    with pytest.raises(ValueError):
        simulate_counts(np.eye(2) / 2, 0, seed=1)
    with pytest.raises(qcore.InvalidStateError):
        simulate_counts(np.eye(4) / 4, 100, seed=1)


def test_record_json_round_trip():
    rec = simulate_counts(np.eye(2) / 2, 777, seed=5)
    text = rec.to_json()
    obj = json.loads(text)
    assert set(obj) == {"seed", "shots", "counts"}
    assert set(obj["counts"]) == {"X", "Y", "Z"}
    assert TomographyRecord.from_json(text) == rec


@pytest.mark.parametrize(
    "field, value",
    [("shots", 10.7), ("seed", 5.0), ("seed", "5"), ("counts", [2.5, 8.5]), ("counts", ["7", 3]), ("counts", [7, None])],
)
def test_record_json_rejects_non_integers(field, value):
    obj = {"seed": 5, "shots": 10, "counts": {"X": [7, 3], "Y": [5, 5], "Z": [10, 0]}}
    if field == "counts":
        obj["counts"]["Y"] = value
    else:
        obj[field] = value
    with pytest.raises(ValueError, match=field):
        TomographyRecord.from_json(json.dumps(obj))


_RECORD = {"seed": 5, "shots": 10, "counts": {"X": [7, 3], "Y": [5, 5], "Z": [10, 0]}}


@pytest.mark.parametrize(
    "obj, field",
    [
        ({**_RECORD, "counts": {"X": [7, 3], "Y": [5, 5]}}, "counts\\['Z'\\]"),
        ({**_RECORD, "counts": {"X": [7, 3], "Y": [5, 5], "Z": 5}}, "counts\\['Z'\\]"),
        ({**_RECORD, "counts": {"X": [7, 3], "Y": [5, 5], "Z": [5, 5, 0]}}, "counts\\['Z'\\]"),
        ({"seed": 5, "counts": _RECORD["counts"]}, "shots"),
        ({"shots": 10, "counts": _RECORD["counts"]}, "seed"),
        ({**_RECORD, "seed": -5}, "seed"),
        ({**_RECORD, "seed": 2**70}, "seed"),
        ({**_RECORD, "counts": None}, "counts"),
        ([_RECORD], "counts"),
        ({**_RECORD, "counts": {"X": [7, 2], "Y": [5, 5], "Z": [10, 0]}}, "counts\\['X'\\]"),
    ],
)
def test_record_json_rejects_malformed_fields_naming_them(obj, field):
    with pytest.raises(ValueError, match=field):
        TomographyRecord.from_json(json.dumps(obj))
    assert TomographyRecord.from_json(json.dumps({**_RECORD, "seed": 2**64 - 1})).seed == 2**64 - 1


def test_checks_name_the_basis_of_a_count_pair_of_the_wrong_length():
    for z in ((5, 5, 0), (10,)):
        with pytest.raises(ValueError, match="counts\\['Z'\\]"):
            TomographyRecord(shots_per_basis=10, seed=0, counts={"X": (7, 3), "Y": (5, 5), "Z": z})


def test_checks_keep_the_seed_in_the_json_range():
    # a record that exists also writes JSON that from_json reads back
    counts = {"X": (7, 3), "Y": (5, 5), "Z": (10, 0)}
    for seed in (-1, 2**64, 2**70, 5.0, True):
        with pytest.raises(ValueError, match="seed"):
            TomographyRecord(shots_per_basis=10, seed=seed, counts=counts)
    for seed in (0, 2**64 - 1):
        record = TomographyRecord(shots_per_basis=10, seed=seed, counts=counts)
        assert reconstruct_mle(record).state.shape == (2, 2)
        assert TomographyRecord.from_json(record.to_json()).seed == seed


# --- reconstruct_linear ----------------------------------------------------------

def _record_from_counts(shots, x, y, z):
    return TomographyRecord(shots_per_basis=shots, seed=0, counts={"X": x, "Y": y, "Z": z})


def test_linear_exact_h_state():
    rec = _record_from_counts(1000, (500, 500), (500, 500), (1000, 0))
    res = reconstruct_linear(rec)
    assert np.max(np.abs(res.state - projector(oracles.KET_H))) <= 1e-12
    assert res.method == "linear" and res.converged


def test_linear_zero_stokes_gives_maximally_mixed():
    rec = _record_from_counts(1000, (500, 500), (500, 500), (500, 500))
    assert np.allclose(reconstruct_linear(rec).state, np.eye(2) / 2)


def test_linear_clips_unphysical_candidate():
    # r = (0.8, 0.8, 0.8) has |r| > 1; clipping lands on the pure state along r
    rec = _record_from_counts(10, (9, 1), (9, 1), (9, 1))
    res = reconstruct_linear(rec)
    n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    expected = oracles.bloch_rho(*n)
    assert np.max(np.abs(res.state - expected)) <= 1e-12
    eigs = np.linalg.eigvalsh(res.state)
    assert eigs == pytest.approx([0.0, 1.0], abs=1e-12)


def test_linear_output_always_physical():
    rng = np.random.default_rng(44)
    for _ in range(50):
        rho = random_density(rng, 2)
        rec = simulate_counts(rho, 200, seed=int(rng.integers(1 << 32)))
        assert validate_density(reconstruct_linear(rec).state).ok


def test_linear_closed_form_matches_eigenvalue_clipping():
    rng = np.random.default_rng(45)
    records = [simulate_counts(random_density(rng, 2), int(shots), seed=int(rng.integers(1 << 32)))
               for shots in rng.integers(1, 2000, 200)]
    records += [_record_from_counts(n, *[(k, n - k) for k in rng.integers(0, n + 1, 3)]) for n in (1, 2, 5, 10, 100)]
    records += [
        _record_from_counts(10, (9, 1), (9, 1), (9, 1)),  # |s| > 1
        _record_from_counts(10, (10, 0), (5, 5), (5, 5)),  # |s| = 1
        _record_from_counts(10, (5, 5), (5, 5), (5, 5)),  # s = 0
        _record_from_counts(3, (0, 3), (3, 0), (0, 3)),  # |s| = sqrt(3)
    ]
    assert sum(np.linalg.norm(oracles.stokes(rec)) > 1.0 for rec in records) >= 15
    for rec in records:
        got, want = reconstruct_linear(rec).state, oracles.linear_clip_oracle(rec).state
        assert np.max(np.abs(got - want)) <= 1e-12


# --- reconstruct_mle --------------------------------------------------------------

def _pipeline_states():
    """(Bob's state, stream) of every record of the 19-point family1/family2 sampled pipeline, seed 42."""
    states = []
    for family in (family1, family2):
        for g in range(19):
            psi = family(2.5 * g)
            rho_ab = projector(psi)
            states.append((partial_trace(rho_ab, "B"), derive_stream(42, g, 0)))
            for t, outcome in enumerate(alice_measure(rho_ab, optimal_basis_pure(psi)), start=1):
                if outcome.prob > 0.0:
                    states.append((outcome.bob_state, derive_stream(42, g, t)))
    return states


def _pipeline_records():
    """Every record of the 19-point family1/family2 sampled pipeline at 1e5 shots, seed 42."""
    return [simulate_counts(state, 10**5, stream) for state, stream in _pipeline_states()]


def _mixed_records():
    rng = np.random.default_rng(47)
    return [
        simulate_counts(random_density(rng, 2), shots, seed=derive_stream(13, k))
        for k in range(20)
        for shots in (10**2, 10**4, 10**6)
    ]


EDGE_RECORDS = {
    "one-axis-no-minus-counts": _record_from_counts(100, (100, 0), (60, 40), (50, 50)),
    "every-axis-pure": _record_from_counts(10, (10, 0), (10, 0), (10, 0)),
    "unit-stokes-on-axis": _record_from_counts(10, (10, 0), (5, 5), (5, 5)),
    "unit-stokes-off-axes": _record_from_counts(50, (40, 10), (45, 5), (25, 25)),
    "zero-stokes": _record_from_counts(1000, (500, 500), (500, 500), (500, 500)),
    "near-pure-one-minus-count": _record_from_counts(100_000, (50_010, 49_990), (49_900, 50_100), (99_999, 1)),
    # a unit axis at 1e5 shots, as on Bob's pure conditional states: r_x stays pinned at 1 up to mu = 1/2,
    # where its slope is 0/0, so the Newton seed starts past 1/2
    "unit-axis-boundary": _record_from_counts(100_000, (100_000, 0), (50_215, 49_785), (50_167, 49_833)),
    # s = (1 - 2^-26, 2^-13, 2^-13) is exact and so is s.s = 1 + 2^-52, whose sqrt rounds to 1: the seed |s| - 1 is 0
    "sqrt-rounds-seed-to-zero": _record_from_counts(2**27, (2**27 - 1, 1), (2**26 + 2**13, 2**26 - 2**13), (2**26 + 2**13, 2**26 - 2**13)),
    # the same rounding beside a unit axis: s = (1, 2^-26, 0) seeds at exactly 1/2, where r_x's slope is 0/0
    "sqrt-rounds-seed-beside-unit-axis": _record_from_counts(2**27, (2**27, 0), (2**26 + 1, 2**26 - 1), (2**26, 2**26)),
    # the Newton point leaves the bracket here; without the bracket guard the solve does not converge
    "newton-leaves-bracket": _record_from_counts(100, (1, 99), (56, 44), (83, 17)),
    # Newton steps on the multiplier oscillate here between two points inside the bracket
    "newton-two-cycle": _record_from_counts(11_130, (11_123, 7), (5_885, 5_245), (1_351, 9_779)),
}


def _bloch(rho):
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def _kkt_residual(record, r):
    """Relative residual of n+(1-r) - n-(1+r) = 2 lambda r (1 - r^2) at the best lambda, and lambda."""
    n = record.shots_per_basis
    u = np.array([record.counts[b][0] - record.counts[b][1] for b in BASES]) - n * r
    v = 2.0 * r * (1.0 - r * r)
    lam = float(u @ v / (v @ v))
    return float(np.linalg.norm(u - lam * v)) / n, lam


def _assert_mle_at_least_oracle(record, oracle_state):
    res = reconstruct_mle(record)
    assert res.method == "mle" and res.converged and not res.blended
    assert validate_density(res.state).ok
    ll, ll_oracle = oracles.loglik(record, res.state), oracles.loglik(record, oracle_state)
    assert ll >= ll_oracle - 1e-12 * abs(ll_oracle)
    s = oracles.stokes(record)
    r = _bloch(res.state)
    if s @ s <= 1.0:
        assert res.iterations == 0
        assert np.max(np.abs(r - s)) <= 1e-12
    else:
        assert 0 < res.iterations <= 51
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
        residual, lam = _kkt_residual(record, r)
        assert residual <= 1e-12 and lam >= 0.0
    return res


def _assert_lockstep_mle_matches_scalar_estimator():
    records = _pipeline_records() + _mixed_records() + list(EDGE_RECORDS.values())
    by_shots = {}
    for rec in records:
        by_shots.setdefault(rec.shots_per_basis, []).append(rec)
    boundary = []
    for shots, recs in by_shots.items():
        blochs, steps = tomography._mle(np.array([[r.counts[b][0] for b in BASES] for r in recs]), shots)
        for rec, bloch, n_steps in zip(recs, blochs, steps.tolist()):
            want, want_steps = oracles.mle_oracle(rec)
            # numpy's SIMD arcsin and sin may round a stack and a scalar differently in the last bits
            assert np.all(np.abs(bloch - want) <= 4.0 * np.spacing(np.abs(want)))
            assert n_steps == want_steps and (n_steps == 0 or 1 <= n_steps <= 51)
            if n_steps:
                boundary.append(n_steps)
    assert len(boundary) >= 40
    return boundary


def test_lockstep_mle_matches_scalar_estimator():
    _assert_lockstep_mle_matches_scalar_estimator()


def test_lockstep_mle_bisection_path_matches_scalar_estimator(monkeypatch):
    # with no fast steps every row that its start does not solve goes to the bracketed search, and with a gain of 0
    # that takes no Newton step while |h| > 1e-8: a row whose start is within 1e-8 ends in Newton steps by step 3,
    # and every other row bisects down to there, in more than 8 steps (the sqrt-rounds-seed records stop at step 1)
    monkeypatch.setattr(tomography, "_FAST_STEPS", 0)
    monkeypatch.setattr(tomography, "_NEWTON_GAIN", 0.0)
    steps = _assert_lockstep_mle_matches_scalar_estimator()
    assert steps.count(1) == 2 and all(n <= 3 or n > 9 for n in steps) and sum(n > 9 for n in steps) >= 30


def test_mle_newton_converges_fast_on_every_pipeline_boundary_row():
    # a row that falls back to bisection takes more than 8 steps (see the bisection path test)
    records = _pipeline_records()
    s = np.array([oracles.stokes(rec) for rec in records])
    _, steps = tomography._mle(np.array([[rec.counts[b][0] for b in BASES] for rec in records]), 10**5)
    boundary = np.vecdot(s, s) > 1.0
    assert boundary.sum() >= 40 and (steps[~boundary] == 0).all()
    assert (steps[boundary] >= 1).all() and (steps[boundary] <= 8).all()
    for name in ("unit-axis-boundary", "one-axis-no-minus-counts", "every-axis-pure"):
        assert 1 <= reconstruct_mle(EDGE_RECORDS[name]).iterations <= 8, name
    assert reconstruct_mle(EDGE_RECORDS["newton-two-cycle"]).iterations <= 51


def test_mle_at_least_rrr_oracle_on_pipeline_and_mixed_records():
    pipeline = _pipeline_records()
    assert len(pipeline) == 114
    records = pipeline + _mixed_records()
    results = [_assert_mle_at_least_oracle(rec, res.state) for rec, res in zip(records, oracles.mle_rrr_oracles(records))]
    # Bob's conditional states are pure, so the pipeline exercises the boundary case
    assert sum(res.iterations > 0 for res in results) >= 40


@pytest.mark.parametrize("name", sorted(EDGE_RECORDS))
def test_mle_edge_records(name):
    _assert_mle_at_least_oracle(EDGE_RECORDS[name], oracles.mle_rrr_oracle(EDGE_RECORDS[name]).state)


def test_mle_edge_record_values():
    res = reconstruct_mle(EDGE_RECORDS["every-axis-pure"])
    assert np.max(np.abs(_bloch(res.state) - np.ones(3) / math.sqrt(3.0))) <= 1e-12
    res = reconstruct_mle(EDGE_RECORDS["unit-stokes-on-axis"])
    assert res.iterations == 0
    assert np.max(np.abs(res.state - oracles.bloch_rho(1.0, 0.0, 0.0))) <= 1e-15
    res = reconstruct_mle(EDGE_RECORDS["zero-stokes"])
    assert res.iterations == 0
    assert np.max(np.abs(res.state - np.eye(2) / 2)) <= 1e-15


def test_mle_raises_when_root_find_hits_step_cap(monkeypatch):
    # the cap holds on the bracketed search: newton-two-cycle leaves the unguarded steps for it, and with no
    # unguarded steps one-axis-no-minus-counts goes to it from its start
    assert reconstruct_mle(EDGE_RECORDS["newton-two-cycle"]).iterations > tomography._FAST_STEPS + 2
    monkeypatch.setattr(tomography, "MLE_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        reconstruct_mle(EDGE_RECORDS["newton-two-cycle"])
    monkeypatch.setattr(tomography, "_FAST_STEPS", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        reconstruct_mle(EDGE_RECORDS["one-axis-no-minus-counts"])


def test_mle_row_does_not_depend_on_its_stack():
    # every boundary row takes the same unguarded steps and the bracketed search stops each row on its own, so the
    # estimate and steps of a row are the same in a shuffled stack, in sub-stacks of any size and alone
    rng = np.random.default_rng(34)
    by_shots = {}
    for rec in _pipeline_records() + _mixed_records() + list(EDGE_RECORDS.values()):
        by_shots.setdefault(rec.shots_per_basis, []).append([rec.counts[b][0] for b in BASES])
    for shots, plus in by_shots.items():
        plus = np.array(plus)
        whole, whole_steps = tomography._mle(plus, shots)
        order = rng.permutation(len(plus))
        cuts = np.sort(rng.choice(np.arange(1, len(plus)), min(len(plus) - 1, 5), replace=False))
        for parts in (np.split(order, cuts), np.split(order, len(order))):
            for part in parts:
                blochs, steps = tomography._mle(plus[part], shots)
                assert blochs.tobytes() == whole[part].tobytes() and steps.tolist() == whole_steps[part].tolist(), shots


def test_mle_low_shot_sweep_falls_back_and_keeps_the_kkt_point():
    # from 3 to 100 shots many boundary rows fail the unguarded steps and take the bracketed search; every estimate
    # still solves the KKT conditions, reaches the R-rho-R likelihood and matches the scalar estimator
    rng = np.random.default_rng(340)
    records = []
    for shots in (3, 5, 7, 10, 20, 50, 100):
        r = rng.normal(size=(40, 3))
        r *= rng.uniform(0.8, 1.0, (40, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
        plus = rng.binomial(shots, (1.0 + r) / 2.0).tolist()
        records += [_record_from_counts(shots, *((k, shots - k) for k in row)) for row in plus]
    results = [_assert_mle_at_least_oracle(rec, res.state) for rec, res in zip(records, oracles.mle_rrr_oracles(records))]
    steps = np.array([res.iterations for res in results])
    assert (steps > 0).sum() >= 100 and (steps > tomography._FAST_STEPS + 1).sum() >= 0.1 * (steps > 0).sum()
    for rec, res in zip(records, results):
        want, want_steps = oracles.mle_oracle(rec)
        assert np.all(np.abs(_bloch(res.state) - want) <= 1e-15) and res.iterations == want_steps
    # the 1e5-shot pipeline's boundary rows, Bob's pure conditional states, all end on the unguarded steps
    records = _pipeline_records()
    _, steps = tomography._mle(np.array([[rec.counts[b][0] for b in BASES] for rec in records]), 10**5)
    assert set(steps.tolist()) == {0, tomography._FAST_STEPS + 1}


TOMOGRAPHY_BITS_0_14_0 = Path(__file__).parent / "data" / "tomography_bits_0.14.0.json"
TOMOGRAPHY_BITS_0_15_0 = Path(__file__).parent / "data" / "tomography_bits_0.15.0.json"
ESTIMATE_MOVE_0_15_0 = 1e-14  # the most a Bloch component moved from mle-newton-v2 to v3 here was 9.2e-16


def _tomography_bits() -> dict:
    """{"<kernel> <case>": [int or float.hex, ...]} of the sampled path's kernels on inputs at their edges.

    Streams: derive_stream and _basis_uniforms at seeds 0 and 2^64 - 1 with uint64 indices near 2^64, so the
    stream arithmetic wraps.  Draws: _binomial_draws at n = 1, 7, 3,520 and 1e4 on p drawn once and p drawn
    several times, p at and just beyond 0 and 1, u = 0, 2^-53 and 1 - 2^-52, enough distinct p for several CDF
    blocks, single draws, and empty and all-degenerate inputs.  MLE: _mle's Bloch vectors and steps on the stacks
    of _assert_lockstep_mle_matches_scalar_estimator (pinned rows, rows that stop at different steps), and the
    counts and estimates of tomograph on the pipeline's states at 1e3, 1e5 and 1e6 shots and on random mixed
    states at 1e3 to 1e6 shots.  tomography_bits_<version>.json holds this function's output under that cohdist
    version (0.14.0: splitmix64-sampler-v5, mle-newton-v2; 0.15.0: the same sampler, mle-newton-v3), one key a
    line after an "about" key, written with tests/ and src/ on sys.path."""
    out = {}
    near = np.array([0, 1, 2, 2**63, 2**64 - 2**32, 2**64 - 3, 2**64 - 1], dtype=np.uint64)
    for seed in (0, 2**64 - 1):
        streams = derive_stream(seed, *np.meshgrid(near, near, indexing="ij")).ravel()
        out[f"derive_stream {seed}"] = streams.tolist()
        out[f"derive_stream of streams {seed}"] = derive_stream(streams, near[:, None]).ravel().tolist()
        out[f"_basis_uniforms {seed}"] = [x.hex() for x in tomography._basis_uniforms(streams).ravel().tolist()]
    rng = np.random.default_rng(33)
    edge_u = [0.0, 2.0**-53, 1.0 - 2.0**-52]
    for n in (1, 7, 3_520, 10_000):
        ps = np.concatenate([[0.0, 1.0, -2.0**-60, 1.0 + 2.0**-52, 1e-12, 1.0 - 1e-12, 0.5], rng.uniform(size=60),
                             10 ** rng.uniform(-14, 0, 10), 1 - 10 ** rng.uniform(-14, 0, 10)])
        p = np.repeat(ps, np.where(rng.uniform(size=ps.size) < 0.3, rng.integers(2, 7, ps.size), 1))  # most p once
        u = np.where(rng.uniform(size=p.size) < 0.2, rng.choice(edge_u, p.size), rng.uniform(size=p.size))
        order = rng.permutation(p.size)
        draw = functools.partial(tomography._binomial_draws, n)
        out[f"_binomial_draws {n}"] = draw(p[order], u[order]).tolist()
        out[f"_binomial_draws {n} edge u"] = draw(np.repeat(ps, 3), np.tile(edge_u, ps.size)).tolist()
        out[f"_binomial_draws {n} single"] = [draw(ps[i : i + 1], u[i : i + 1]).tolist() for i in range(20)]
        out[f"_binomial_draws {n} degenerate"] = draw(np.array([0.0, 1.0, 1.0, -0.0]), rng.uniform(size=4)).tolist()
        out[f"_binomial_draws {n} empty"] = draw(np.empty(0), np.empty(0)).tolist()
    by_shots = {}
    for rec in _pipeline_records() + _mixed_records() + list(EDGE_RECORDS.values()):
        by_shots.setdefault(rec.shots_per_basis, []).append([rec.counts[b][0] for b in BASES])
    for shots, plus in sorted(by_shots.items()):
        blochs, steps = tomography._mle(np.array(plus), shots)
        out[f"_mle {shots}"] = [x.hex() for x in blochs.ravel().tolist()]
        out[f"_mle {shots} steps"] = steps.tolist()
    states, streams = zip(*_pipeline_states())
    pipeline = (np.array([qcore.bloch_vector(rho) for rho in states]), np.array(streams, dtype=np.uint64))
    mixed = (np.array([qcore.bloch_vector(random_density(rng, 2)) for _ in range(60)]), derive_stream(7, np.arange(60, dtype=np.uint64)))
    for name, (blochs, streams), shots_list in (("pipeline", pipeline, (10**3, 10**5, 10**6)),
                                                ("mixed", mixed, (10**3, 9_999, 10**4, 10**5, 10**6))):
        for shots in shots_list:
            out[f"_pauli_counts {name} {shots}"] = tomography._pauli_counts(blochs, shots, streams).ravel().tolist()
            _, est, steps = tomography.tomograph(blochs, shots, streams)
            out[f"tomograph {name} {shots}"] = [x.hex() for x in est.ravel().tolist()]
            out[f"tomograph {name} {shots} steps"] = steps.tolist()
    return out


@pytest.fixture(scope="module")
def tomography_bits() -> dict:
    return _tomography_bits()


def test_tomography_kernels_match_0_14_0_to_the_stated_bound(tomography_bits):
    # streams and counts are 0.14.0's bit for bit; mle-newton-v3 moves each estimate by at most ESTIMATE_MOVE_0_15_0
    # and keeps which rows are on the boundary, with their steps counted from the unguarded ones
    stored = json.loads(TOMOGRAPHY_BITS_0_14_0.read_text())
    assert sorted(tomography_bits) == sorted(k for k in stored if k != "about")
    for name, values in tomography_bits.items():
        if name.endswith(" steps"):
            assert [n > 0 for n in values] == [n > 0 for n in stored[name]], name
            assert all(n == 0 or n > tomography._FAST_STEPS for n in values), name
        elif name.startswith(("_mle", "tomograph")):
            got, want = (np.array([float.fromhex(x) for x in v]) for v in (values, stored[name]))
            assert np.max(np.abs(got - want)) <= ESTIMATE_MOVE_0_15_0, f"{name} moved from the golden written by: {stored['about']}"
        else:
            assert values == stored[name], f"{name} differs from the golden written by: {stored['about']}"


def test_tomography_kernels_match_0_15_0_bit_for_bit(tomography_bits):
    # streams, draws and MLE iterates under mle-newton-v3, with boundary rows that end on the unguarded steps and
    # rows that go on to the bracketed search
    stored = json.loads(TOMOGRAPHY_BITS_0_15_0.read_text())
    assert sorted(tomography_bits) == sorted(k for k in stored if k != "about")
    steps = [n for name, values in tomography_bits.items() if name.startswith("_mle") and name.endswith(" steps") for n in values]
    assert steps.count(tomography._FAST_STEPS + 1) >= 40 and sum(n > tomography._FAST_STEPS + 1 for n in steps) >= 4
    for name, values in tomography_bits.items():
        assert values == stored[name], f"{name} differs from the golden written by: {stored['about']}"


@st.composite
def _count_records(draw):
    shots = draw(st.integers(1, 10_000))
    counts = [draw(st.integers(0, shots)) for _ in BASES]
    return _record_from_counts(shots, *((c, shots - c) for c in counts))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_count_records())
def test_mle_property_physical_and_at_least_oracle_likelihood(record):
    res = reconstruct_mle(record)
    assert validate_density(res.state).ok
    ll_oracle = oracles.loglik(record, oracles.mle_rrr_oracle(record).state)
    assert oracles.loglik(record, res.state) >= ll_oracle - 1e-12 * abs(ll_oracle)


def test_mle_pure_state_limit():
    rec = _record_from_counts(100_000, (50_000, 50_000), (50_000, 50_000), (100_000, 0))
    res = reconstruct_mle(rec)
    assert fidelity(res.state, projector(oracles.KET_H)) >= 1.0 - 1e-6


def test_mle_family1_conditional_state():
    # Bob's post-measurement state for the first family at theta = 10 degrees
    outcomes = alice_measure(projector(family1(10.0)), MeasurementBasis((0.0, 1.0, 0.0)))
    truth = outcomes.outcomes[0].bob_state
    rec = simulate_counts(truth, 10**6, seed=derive_stream(42, 10, 1))
    res = reconstruct_mle(rec)
    assert fidelity(res.state, truth) >= 0.999


def test_mle_output_always_physical_and_deterministic():
    rng = np.random.default_rng(46)
    for k in range(20):
        rho = random_density(rng, 2)
        rec = simulate_counts(rho, 500, seed=derive_stream(21, k))
        res1 = reconstruct_mle(rec)
        res2 = reconstruct_mle(rec)
        assert validate_density(res1.state).ok
        assert np.array_equal(res1.state, res2.state)
        assert res1.iterations == res2.iterations


def test_mle_consistency_with_growing_shots():
    rng = np.random.default_rng(31337)
    for k in range(20):
        rho = random_density(rng, 2)
        fids = []
        for shots in (10**3, 10**5, 10**7):
            rec = simulate_counts(rho, shots, seed=derive_stream(7, k))
            fids.append(fidelity(reconstruct_mle(rec).state, rho))
        assert fids[0] <= fids[1] <= fids[2]
        assert fids[2] >= 0.999


def test_mle_rejects_malformed_record():
    with pytest.raises(ValueError):
        reconstruct_mle(_record_from_counts(100, (50, 51), (50, 50), (50, 50)))


@pytest.mark.parametrize(
    "shots, counts, field",
    [(10, (2.5, 7.5), "counts"), (True, (True, False), "shots_per_basis"), (1, (True, False), "counts"),
     (10, ("5", 5), "counts"), (10.0, (5, 5), "shots_per_basis")],
    ids=["half-counts", "bool-shots", "bool-counts", "str-count", "float-shots"],
)
def test_records_with_non_integer_shots_or_counts_are_rejected_naming_the_field(shots, counts, field):
    with pytest.raises(ValueError, match=field):
        _record_from_counts(shots, counts, counts, counts)


@pytest.mark.parametrize("shots", [SHOTS_MAX + 1, 2**64, 2**70], ids=["2^53+1", "2^64", "2^70"])
def test_records_beyond_shots_max_are_rejected_naming_the_field(shots):
    with pytest.raises(ValueError, match="shots_per_basis"):
        _record_from_counts(shots, (shots, 0), (0, shots), (shots, 0))


def test_records_take_numpy_integer_shots_and_counts():
    counts = ((10, 0), (10, 0), (4, 6))
    plain = TomographyRecord(10, 2**64 - 1, dict(zip(BASES, counts)))
    numpy_ints = TomographyRecord(np.int64(10), np.uint64(2**64 - 1), {b: tuple(map(np.int32, c)) for b, c in zip(BASES, counts)})
    # stored as ints, so the record equals the plain one and writes JSON that reads back as it
    assert numpy_ints == plain and numpy_ints.to_json() == plain.to_json()
    assert all(type(v) is int for v in (numpy_ints.shots_per_basis, numpy_ints.seed, *sum(numpy_ints.counts.values(), ())))
    assert TomographyRecord.from_json(numpy_ints.to_json()) == plain
    for reconstruct in (reconstruct_linear, reconstruct_mle):
        assert np.array_equal(reconstruct(numpy_ints).state, reconstruct(plain).state)


def test_records_are_checked_when_made():
    with pytest.raises(ValueError, match="counts"):
        TomographyRecord(10, 0, None)
    for pair in ((11, -1), (-1, 11), (5, 6)):
        with pytest.raises(ValueError, match="counts\\['Y'\\]"):
            TomographyRecord(10, 0, {"X": (7, 3), "Y": pair, "Z": (10, 0)})


def test_records_reject_count_keys_other_than_the_bases():
    with pytest.raises(ValueError, match="keys other than X, Y and Z: 'W'"):
        TomographyRecord(10, 0, {"X": (7, 3), "Y": (5, 5), "Z": (10, 0), "W": (1, 9)})
    with pytest.raises(ValueError, match="'x', 'W'"):
        TomographyRecord.from_json(json.dumps({**_RECORD, "counts": {**_RECORD["counts"], "x": [7, 3], "W": [1, 9]}}))


def test_record_counts_cannot_change_after_the_check():
    record = TomographyRecord(10, 0, {"X": (7, 3), "Y": (5, 5), "Z": (10, 0)})
    text, counts = record.to_json(), record.counts
    with pytest.raises(TypeError, match="cannot be changed"):
        record.counts["X"] = (70, 3)
    with pytest.raises(TypeError, match="cannot be changed"):
        del record.counts["X"]
    with pytest.raises(TypeError, match="cannot be changed"):
        counts |= {"X": (0, 10)}
    changes = [
        lambda c: c.update(X=(0, 10)), lambda c: c.pop("X"), lambda c: c.popitem(), lambda c: c.clear(),
        lambda c: c.setdefault("W", (0, 10)),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="cannot be changed"):
            change(record.counts)
    assert record.to_json() == text and record.counts == {"X": (7, 3), "Y": (5, 5), "Z": (10, 0)}
    # copies keep the check: each equals the record and refuses changes too
    copies = [pickle.loads(pickle.dumps(record)), copy.deepcopy(record), dataclasses.replace(record, seed=1)]
    copies.append(TomographyRecord(record.shots_per_basis, record.seed, record.counts))
    for other in copies:
        assert dataclasses.replace(other, seed=0) == record
        with pytest.raises(TypeError, match="cannot be changed"):
            other.counts["X"] = (70, 3)
    assert dataclasses.asdict(record) == {"shots_per_basis": 10, "seed": 0, "counts": {"X": (7, 3), "Y": (5, 5), "Z": (10, 0)}}
    assert TomographyRecord.from_json(text) == record


# --- R-rho-R reference estimator (tests/oracles.py) ------------------------------

def test_mle_fixed_point_converges_immediately():
    rec = _record_from_counts(1000, (500, 500), (500, 500), (500, 500))
    res = oracles.mle_rrr_oracle(rec)
    assert res.converged and res.iterations == 1
    assert np.allclose(res.state, np.eye(2) / 2, atol=1e-14)


def test_mle_loglik_monotone():
    rng = np.random.default_rng(45)
    for k in range(30):
        rho = random_density(rng, 2)
        rec = simulate_counts(rho, 2000, seed=derive_stream(11, k))
        res = oracles.mle_rrr_oracle(rec)
        ll = res.loglik_trace
        assert ll
        for a, b in zip(ll, ll[1:]):
            assert b >= a - 1e-9 * abs(a)
