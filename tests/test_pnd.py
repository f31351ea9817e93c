import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppskit.errors import InvalidInputError, UndefinedCharacteristicError
from ppskit.pnd import (
    CharacteristicSet,
    PndMatrix,
    apply_loss_bipartite,
    characteristics,
    characteristics_many,
    g2_marginal,
    gh2,
    heralding_bounds,
    loss_matrix,
    marginal,
    pair_gen_prob,
    read_pnd_csv,
    tmsv_pnd,
    write_pnd_csv,
)


def normalized_pnds(n_max=2):
    shape = (n_max + 1, n_max + 1)
    return (
        hnp.arrays(np.float64, shape, elements=st.floats(1e-6, 1.0))
        .map(lambda a: PndMatrix(a / a.sum()))
    )


class TestTmsv:
    def test_zero_gain_is_vacuum(self):
        P = tmsv_pnd(0.0)
        assert P.p[0, 0] == 1.0
        assert P.p.sum() == 1.0
        assert not P.subnormalized

    def test_small_gain_cells(self):
        P = tmsv_pnd(0.01)
        assert P.p[1, 1] == pytest.approx(0.0099, abs=1e-12)
        assert P.subnormalized

    @given(mu=st.floats(0.0, 0.95), n_max=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_sums_to_geometric_total(self, mu, n_max):
        P = tmsv_pnd(mu, n_max)
        assert P.total() == pytest.approx(1.0 - mu ** (n_max + 1), abs=1e-12)

    def test_rejects_unit_gain(self):
        with pytest.raises(InvalidInputError):
            tmsv_pnd(1.0)

    def test_unaddressable_n_max_is_named(self):
        # A side whose float64 cells numpy cannot count, rejected before
        # numpy raises its own ValueError.
        with pytest.raises(InvalidInputError, match="n_max must be at most"):
            tmsv_pnd(0.01, 1e300)


class TestLossMatrix:
    def test_identity_at_full_transmission(self):
        np.testing.assert_allclose(loss_matrix(1.0, 3), np.eye(4))

    def test_half_transmission_values(self):
        expected = np.array(
            [
                [1.0, 0.5, 0.25],
                [0.0, 0.5, 0.5],
                [0.0, 0.0, 0.25],
            ]
        )
        np.testing.assert_allclose(loss_matrix(0.5, 2), expected)

    def test_total_blocking_collapses_to_vacuum(self):
        L = loss_matrix(0.0, 2)
        np.testing.assert_allclose(L[0], 1.0)
        np.testing.assert_allclose(L[1:], 0.0)

    def test_rejects_transmittance_above_one(self):
        with pytest.raises(InvalidInputError):
            loss_matrix(1.5, 2)

    @given(T=st.floats(0.0, 1.0), n_max=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_columns_are_distributions(self, T, n_max):
        L = loss_matrix(T, n_max)
        np.testing.assert_allclose(L.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(L >= 0)


class TestApplyLoss:
    def test_n_max_past_the_loss_bound_is_named(self):
        # loss_matrix checks its bound before its loop, so this fails at once.
        with pytest.raises(InvalidInputError, match="n_max of a loss matrix must be at most 1000"):
            apply_loss_bipartite(tmsv_pnd(0.1, 1100), 0.5, 0.5)

    def test_no_loss_is_identity(self):
        P = tmsv_pnd(0.05)
        Q = apply_loss_bipartite(P, 1.0, 1.0)
        np.testing.assert_allclose(Q.p, P.p)

    def test_tmsv_under_loss_matches_binomial_expansion(self):
        mu, T_s, T_i = 0.05, 0.8, 0.6
        P = tmsv_pnd(mu)
        Q = apply_loss_bipartite(P, T_s, T_i)
        R_s, R_i = 1 - T_s, 1 - T_i
        p = [(1 - mu) * mu**j for j in range(3)]
        expected = (
            p[0] * np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
            + p[1]
            * np.array(
                [
                    [R_s * R_i, R_s * T_i, 0],
                    [T_s * R_i, T_s * T_i, 0],
                    [0, 0, 0],
                ]
            )
            + p[2]
            * np.array(
                [
                    [R_s**2 * R_i**2, 2 * R_s**2 * T_i * R_i, R_s**2 * T_i**2],
                    [2 * T_s * R_s * R_i**2, 4 * T_s * R_s * T_i * R_i, 2 * T_s * R_s * T_i**2],
                    [T_s**2 * R_i**2, 2 * T_s**2 * T_i * R_i, T_s**2 * T_i**2],
                ]
            )
        )
        np.testing.assert_allclose(Q.p, expected, atol=1e-15)

    @given(P=normalized_pnds(), T_s=st.floats(0.0, 1.0), T_i=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_total_probability_preserved(self, P, T_s, T_i):
        Q = apply_loss_bipartite(P, T_s, T_i)
        assert Q.total() == pytest.approx(P.total(), abs=1e-12)

    @given(
        P=normalized_pnds(),
        T1=st.floats(0.0, 1.0),
        T2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_losses_compose_multiplicatively(self, P, T1, T2):
        twice = apply_loss_bipartite(apply_loss_bipartite(P, T1, 1.0), T2, 1.0)
        once = apply_loss_bipartite(P, T1 * T2, 1.0)
        np.testing.assert_allclose(twice.p, once.p, atol=1e-12)

    @given(P=normalized_pnds(), T=st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_heralding_bound_never_improves_under_heralded_mode_loss(self, P, T):
        # Loss on the heralded mode shrinks P(both present) while leaving the
        # heralding mode's marginal untouched, so each bound is monotone in
        # its own mode's transmission.  (Loss on the *heralding* mode moves
        # both numerator and denominator and is not monotone in general.)
        eta_s_before, eta_i_before = heralding_bounds(P)
        eta_s_after, _ = heralding_bounds(apply_loss_bipartite(P, T, 1.0))
        assert eta_s_after <= eta_s_before + 1e-12
        _, eta_i_after = heralding_bounds(apply_loss_bipartite(P, 1.0, T))
        assert eta_i_after <= eta_i_before + 1e-12


class TestMarginals:
    def test_diagonal_matrix_has_equal_marginals(self):
        P = tmsv_pnd(0.1)
        np.testing.assert_allclose(marginal(P, "s"), marginal(P, "i"))

    def test_single_cell_marginals(self):
        p = np.zeros((3, 3))
        p[0, 1] = 1.0
        P = PndMatrix(p)
        np.testing.assert_allclose(marginal(P, "s"), [1, 0, 0])
        np.testing.assert_allclose(marginal(P, "i"), [0, 1, 0])

    @given(P=normalized_pnds())
    @settings(max_examples=30, deadline=None)
    def test_marginals_are_distributions(self, P):
        assert marginal(P, "s").sum() == pytest.approx(1.0, abs=1e-12)
        assert marginal(P, "i").sum() == pytest.approx(1.0, abs=1e-12)


class TestPairGenProb:
    def test_tmsv_value(self):
        assert pair_gen_prob(tmsv_pnd(0.02)) == pytest.approx(0.98 * 0.02)

    def test_zero_cell(self):
        assert pair_gen_prob(tmsv_pnd(0.0)) == 0.0


class TestHeraldingBounds:
    def test_pair_only_first_order_gives_unity(self):
        p = np.zeros((3, 3))
        p[1, 1] = 1e-3
        p[0, 0] = 1 - 1e-3
        assert heralding_bounds(PndMatrix(p)) == (1.0, 1.0)

    def test_equal_three_cell_distribution_gives_half(self):
        mu = 3e-3
        p = np.zeros((3, 3))
        p[0, 1] = p[1, 0] = p[1, 1] = mu / 3
        p[0, 0] = 1 - mu
        eta_s, eta_i = heralding_bounds(PndMatrix(p))
        assert eta_s == pytest.approx(0.5)
        assert eta_i == pytest.approx(0.5)

    def test_no_photons_is_undefined(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        with pytest.raises(UndefinedCharacteristicError):
            heralding_bounds(PndMatrix(p))

    def test_subnormalized_rejected(self):
        with pytest.raises(InvalidInputError):
            heralding_bounds(tmsv_pnd(0.3))


class TestG2:
    def test_thermal_tail_gives_two(self):
        mu = 0.01
        pv = np.array([(1 - mu) * mu**n for n in range(11)])
        pv[-1] += 1 - pv.sum()  # fold the geometric tail into the last cell
        assert g2_marginal(pv) == pytest.approx(2.0, abs=1e-3)

    def test_poissonian_ratio_gives_one(self):
        pv = np.array([1 - 1e-3 - 5e-7, 1e-3, 5e-7])
        assert g2_marginal(pv, truncated=True) == pytest.approx(1.0)

    def test_thermal_ratio_gives_two(self):
        pv = np.array([1 - 1e-5 - 1e-10, 1e-5, 1e-10])
        assert g2_marginal(pv, truncated=True) == pytest.approx(2.0)

    def test_zero_mean_undefined(self):
        with pytest.raises(UndefinedCharacteristicError):
            g2_marginal(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2])
    @pytest.mark.parametrize("truncated", [False, True])
    def test_non_finite_entry_rejected(self, bad, where, truncated):
        pv = np.array([1 - 1e-3 - 5e-7, 1e-3, 5e-7])
        pv[where] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            g2_marginal(pv, truncated=truncated)

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("pv", [[0.0, 2e-154, 10.0], [1.5, 1e-3, 0.0], [1.0, -1e-3, 1e-3]],
                             ids=["above-1", "first-above-1", "negative"])
    def test_entry_outside_unit_interval_rejected(self, pv, truncated):
        # [0, 2e-154, 10] overflowed the truncated ratio to inf.
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            g2_marginal(np.array(pv), truncated=truncated)

    def test_full_form_with_underflowing_mean_square_undefined(self):
        # mean^2 = 1e-340 underflows to 0; this raised ZeroDivisionError.
        with pytest.raises(UndefinedCharacteristicError, match="underflows"):
            g2_marginal(np.array([1 - 1e-170, 1e-170, 0.0]))

    def test_full_form_approaches_truncated_for_weak_excitation(self):
        for mu in (1e-3, 1e-4, 1e-5):
            pv = np.array([1 - mu - mu**2, mu, mu**2])
            full = g2_marginal(pv)
            trunc = g2_marginal(pv, truncated=True)
            assert abs(full - trunc) < 10 * mu


class TestGh2:
    def test_unfiltered_lossless_value(self):
        mu, k = 1e-3, 2.0
        p = np.zeros((3, 3))
        p[1, 1] = mu
        p[2, 2] = mu**2 * (1 + 1 / k) / 2
        p[0, 0] = 1 - p.sum()
        P = PndMatrix(p)
        assert gh2(P, "s") == pytest.approx(mu * (1 + 1 / k), rel=1e-12)
        assert gh2(P, "i") == pytest.approx(mu * (1 + 1 / k), rel=1e-12)

    def test_no_two_photon_cells_gives_zero(self):
        p = np.zeros((3, 3))
        p[1, 1] = 1e-3
        p[0, 1] = 1e-4
        p[0, 0] = 1 - p.sum()
        assert gh2(PndMatrix(p), "s") == 0.0

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.0, 1.0, (3, 3))
        p /= p.sum()
        P = PndMatrix(p)
        Pt = PndMatrix(p.T.copy())
        assert gh2(P, "i") == pytest.approx(gh2(Pt, "s"), rel=1e-12)

    def test_zero_pair_cell_undefined(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        with pytest.raises(UndefinedCharacteristicError):
            gh2(PndMatrix(p), "s")

    def test_matches_conditional_probability_bruteforce(self):
        # conditional form: 2 P(n_s=2, n_i>=1) P(n_i>=1) / P(n_s=1, n_i>=1)^2
        rng = np.random.default_rng(11)
        mu = 1e-3
        p = np.zeros((3, 3))
        p[0, 1], p[1, 0] = 0.4 * mu, 0.3 * mu
        p[1, 1] = 0.5 * mu
        p[0, 2], p[2, 0] = 0.1 * mu**2, 0.2 * mu**2
        p[1, 2], p[2, 1] = 0.5 * mu**2, 0.7 * mu**2
        p[2, 2] = 0.6 * mu**2
        p[0, 0] = 1 - p.sum()
        P = PndMatrix(p)
        herald = p[:, 1:].sum()
        brute = 2 * p[2, 1:].sum() * herald / p[1, 1:].sum() ** 2
        assert gh2(P, "s") == pytest.approx(brute, rel=5e-3)


class TestCharacteristics:
    def test_bundle_matches_parts(self):
        p = np.zeros((3, 3))
        p[1, 1] = 1e-3
        p[0, 1] = 2e-4
        p[1, 0] = 1e-4
        p[2, 2] = 1e-6
        p[0, 0] = 1 - p.sum()
        P = PndMatrix(p)
        chars = characteristics(P)
        assert isinstance(chars, CharacteristicSet)
        assert chars.p_g == pair_gen_prob(P)
        assert (chars.eta_H_s, chars.eta_H_i) == heralding_bounds(P)
        assert chars.gh2_s == gh2(P, "s")
        assert chars.g2_i == g2_marginal(marginal(P, "i"), truncated=True)


def scalar_characteristics(p):
    """The per-matrix formulas that characteristics() used before the
    stacked kernel, with Python floats; raises as they raised, except that
    a P_1 or P11 whose square is below the smallest normal float counts as
    0 (the formulas raised ZeroDivisionError at 0 and could overflow
    below)."""
    tiny = np.finfo(float).tiny
    both = float(p[1:, 1:].sum())
    idler_only, signal_only = float(p[0, 1:].sum()), float(p[1:, 0].sum())
    if both + idler_only <= 0.0 or both + signal_only <= 0.0:
        raise UndefinedCharacteristicError("heralding bound undefined: no photons on one of the modes")
    g2 = []
    for pv in (p.sum(axis=1), p.sum(axis=0)):
        if pv[1] <= 0.0 or float(pv[1]) ** 2 < tiny:
            raise UndefinedCharacteristicError(
                "truncated g2 undefined: P_1 is zero or its square underflows")
        g2.append(2.0 * float(pv[2]) / float(pv[1]) ** 2)
    gh2 = []
    for q in (p, p.T):
        p11 = float(q[1, 1])
        if p11 <= 0.0 or p11**2 < tiny:
            raise UndefinedCharacteristicError("gh2 undefined: P11 is zero or its square underflows")
        gh2.append(2.0 * float(q[2, 1] + q[2, 2]) * float(q[0, 1] + q[1, 1]) / p11**2)
    return [float(p[1, 1]), both / (idler_only + both), both / (signal_only + both), *g2, *gh2]


@st.composite
def pnd_stacks(draw):
    """Stacks of normalized PNDs spanning many decades, with cells
    (p11, whole first rows and columns) emptied at random."""
    n, m = draw(st.integers(3, 5)), draw(st.integers(1, 6))
    a = draw(hnp.arrays(np.float64, (m, n, n), elements=st.floats(0.0, 1.0)))
    scale = draw(hnp.arrays(np.float64, (m, n, n), elements=st.floats(-18.0, 0.0)))
    a = a * 10.0**scale
    for k in range(m):
        emptied = draw(st.sampled_from(["none", "p11", "row1", "col1", "all-but-vacuum"]))
        if emptied == "p11":
            a[k, 1, 1] = 0.0
        elif emptied == "row1":
            a[k, 1, :] = 0.0
        elif emptied == "col1":
            a[k, :, 1] = 0.0
        elif emptied == "all-but-vacuum":
            a[k] = 0.0
        a[k, 0, 0] += 1.0
    return a / a.sum(axis=(1, 2), keepdims=True)


class TestCharacteristicsMany:
    @given(stack=pnd_stacks())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_scalar_formulas_bit_for_bit(self, stack):
        values, undefined = characteristics_many(stack)
        assert values.shape == (len(stack), 7) and undefined.shape == (len(stack),)
        for p, row, flagged in zip(stack, values, undefined):
            try:
                want = scalar_characteristics(p)
            except UndefinedCharacteristicError as exc:
                assert flagged and np.isnan(row).any()
                with pytest.raises(UndefinedCharacteristicError, match=f"^{exc}$"):
                    characteristics(PndMatrix(p))
                continue
            assert not flagged
            assert row.tobytes() == np.array(want).tobytes()
            got = characteristics(PndMatrix(p)).as_dict()
            assert np.array(list(got.values())).tobytes() == np.array(want).tobytes()

    def test_a_seeded_stack_equals_the_scalar_formulas_bit_for_bit(self):
        # Squares that libm's pow and a multiply round apart occur about
        # once per thousand values; 4000 matrices hold 16,000 squares.
        rng = np.random.default_rng(2808)
        stack = rng.uniform(0.0, 1.0, (4000, 3, 3)) * 10.0 ** rng.uniform(-12.0, 0.0, (4000, 3, 3))
        stack[:, 0, 0] = 1.0
        stack /= stack.sum(axis=(1, 2), keepdims=True)
        values, undefined = characteristics_many(stack)
        want = np.array([scalar_characteristics(p) for p in stack])
        assert not undefined.any()
        assert values.tobytes() == want.tobytes()

    def test_empty_pair_cell_and_first_marginal_come_back_nan(self):
        vacuum = np.zeros((3, 3))
        vacuum[0, 0] = 1.0
        no_pairs = vacuum.copy()
        no_pairs[0, 1] = no_pairs[1, 0] = no_pairs[2, 2] = 1e-3
        no_pairs[0, 0] = 1.0 - 3e-3
        values, undefined = characteristics_many(np.stack([vacuum, no_pairs]))
        assert undefined.tolist() == [True, True]
        assert np.isnan(values[0, 1:]).all()  # p_g is the (empty) cell itself
        assert np.isnan(values[1, 5:]).all() and not np.isnan(values[1, :5]).any()

    def test_a_ratio_that_would_overflow_is_undefined(self):
        # P_1² = P11² = 1e-320 is positive but subnormal: 2 P_2 / P_1² would
        # be inf and gh2 2e157.
        p = np.zeros((3, 3))
        p[1, 1], p[2, 2] = 1e-160, 1e-3
        p[0, 0] = 1.0 - p.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values, undefined = characteristics_many(p)
        assert undefined and np.isnan(values[3:]).all() and not np.isnan(values[:3]).any()
        with pytest.raises(UndefinedCharacteristicError, match="truncated g2 undefined"):
            characteristics(PndMatrix(p))
        with pytest.raises(UndefinedCharacteristicError, match="truncated g2 undefined"):
            scalar_characteristics(p)

    def test_without_two_photon_cells_g2_and_gh2_are_undefined(self):
        p = np.array([[0.9, 0.05], [0.03, 0.02]])
        values, undefined = characteristics_many(p)
        assert undefined and np.isnan(values[3:]).all() and not np.isnan(values[:3]).any()
        with pytest.raises(UndefinedCharacteristicError, match="truncated g2"):
            characteristics(PndMatrix(p))
        with pytest.raises(UndefinedCharacteristicError, match="no two-photon cells"):
            gh2(PndMatrix(p), "s")


@pytest.mark.parametrize("subnormalized", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pnd_matrix_rejects_non_finite(bad, subnormalized):
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    p[2, 1] = bad
    with pytest.raises(InvalidInputError):
        PndMatrix(p, subnormalized=subnormalized)


class TestCsvRoundtrip:
    def test_write_read_roundtrip(self, tmp_path):
        P = tmsv_pnd(0.07)
        path = tmp_path / "pnd.csv"
        write_pnd_csv(path, P, {"seed": 42})
        Q, meta = read_pnd_csv(path)
        np.testing.assert_allclose(Q.p, P.p, atol=1e-15)
        assert meta["seed"] == "42"
        assert Q.subnormalized

    @pytest.mark.parametrize(
        "body",
        [
            "0,0,1.0\n3000,0,0\n",
            "0,0,1.0\n0,1,0\n1,0,0\n3000,0,0\n",
            "0,0,1.0\n0,1,0\n1,0,0\n1,0,0\n",
        ],
        ids=["two-rows", "square-count-far-cell", "duplicate-cell"],
    )
    def test_incomplete_lattice_rejected_before_allocating(self, tmp_path, body):
        path = tmp_path / "pnd.csv"
        path.write_text("j,k,p\n" + body)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="PND CSV"):
                read_pnd_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_writer_emits_all_cells(self, tmp_path):
        path = tmp_path / "pnd.csv"
        write_pnd_csv(path, tmsv_pnd(0.0))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 9  # header + every cell including zeros
