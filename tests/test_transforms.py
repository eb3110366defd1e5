import numpy as np
import pytest

from conftest import random_gapped_case
from quantile_limits.distributions import fair_coin, gapped_example, make_discrete
from quantile_limits.empirical import EmpiricalSample
from quantile_limits.errors import NoQuantileGap, ParameterOutOfRange, ValueInGap
from quantile_limits.simulate import sample_stream
from quantile_limits.transforms import (
    BINARIZE,
    COLLAPSE_SHIFT,
    TransformSpec,
    binarize,
    binarize_value,
    collapse_shift,
    collapse_shift_value,
    gap_spec,
)

FIGURE_SPEC = TransformSpec(kind=BINARIZE, p=0.5, lq=0.0, rq=3.0)


class TestBinarize:
    def test_fair_coin(self):
        assert binarize(fair_coin(), 0.5).as_pairs() == [(0.0, 0.5), (1.0, 0.5)]

    def test_three_atom_instance_at_half(self):
        assert binarize(gapped_example(), 0.5).as_pairs() == [(0.0, 0.5), (1.0, 0.5)]

    def test_three_atom_instance_at_point_eight(self):
        # F(3) = 0.8 with gap (3, 5)
        assert binarize(gapped_example(), 0.8).as_pairs() == [(0.0, 0.8), (1.0, 0.2)]

    def test_requires_gap(self):
        with pytest.raises(NoQuantileGap):
            binarize(gapped_example(), 0.3)

    def test_randomized_zero_mass_is_level(self):
        import math

        rng = np.random.default_rng(11)
        for _ in range(300):
            d, p = random_gapped_case(rng)
            out = binarize(d, p)
            assert out.values == (0.0, 1.0)
            assert out.probs[0] == p
            assert math.fsum(out.probs) == 1.0


class TestBinarizeValue:
    def test_above(self):
        assert binarize_value(FIGURE_SPEC, 5.0) == 1.0

    def test_at_left_edge(self):
        assert binarize_value(FIGURE_SPEC, 0.0) == 0.0

    def test_gap_interior_rejected(self):
        with pytest.raises(ValueInGap):
            binarize_value(FIGURE_SPEC, 1.5)


class TestCollapseShift:
    def test_three_atom_instance(self):
        out = collapse_shift(gapped_example(), 0.5)
        assert out.as_pairs() == [(0.0, 0.8), (2.0, 0.2)]
        assert out.left_quantile(0.5) == out.right_quantile(0.5) == 0.0

    def test_fair_coin_merges(self):
        out = collapse_shift(fair_coin(), 0.5)
        assert out.as_pairs() == [(-1.0, 1.0)]
        assert out.left_quantile(0.5) == out.right_quantile(0.5) == -1.0

    def test_requires_gap(self):
        with pytest.raises(NoQuantileGap):
            collapse_shift(fair_coin(), 0.25)

    def test_randomized_quantile_collapse(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d, p = random_gapped_case(rng)
            out = collapse_shift(d, p)
            target = d.left_quantile(p)
            assert out.left_quantile(p) == target
            assert out.right_quantile(p) == target

    def test_cancellation_prone_edges(self):
        # rq - (rq - lq) != lq in plain float arithmetic for these atoms;
        # the collapsed distribution must still land exactly on lq
        d = make_discrete([(0.1, 0.5), (5.0, 0.5)])
        out = collapse_shift(d, 0.5)
        assert out.as_pairs() == [(0.1, 1.0)]
        assert out.left_quantile(0.5) == 0.1


class TestCollapseShiftValue:
    def setup_method(self):
        self.spec = gap_spec(gapped_example(), 0.5, COLLAPSE_SHIFT)

    def test_shifted(self):
        assert collapse_shift_value(self.spec, 5.0) == 2.0

    def test_right_edge_lands_on_left(self):
        assert collapse_shift_value(self.spec, 3.0) == 0.0

    def test_identity_branch(self):
        assert collapse_shift_value(self.spec, 0.0) == 0.0

    def test_gap_interior_rejected(self):
        with pytest.raises(ValueInGap):
            collapse_shift_value(self.spec, 2.9)


class TestSpecConstruction:
    def test_gap_spec_fields(self):
        spec = gap_spec(gapped_example(), 0.5, COLLAPSE_SHIFT)
        assert (spec.lq, spec.rq, spec.h) == (0.0, 3.0, 3.0)

    def test_rejects_coincident(self):
        with pytest.raises(NoQuantileGap):
            gap_spec(gapped_example(), 0.9, BINARIZE)

    def test_rejects_inverted_edges(self):
        with pytest.raises(NoQuantileGap):
            TransformSpec(kind=BINARIZE, p=0.5, lq=3.0, rq=0.0)

    def test_rejects_wrong_shift(self):
        with pytest.raises(ParameterOutOfRange) as info:
            TransformSpec(kind=COLLAPSE_SHIFT, p=0.5, lq=0.0, rq=3.0, h=1.0)
        assert info.value.param == "h"

    @pytest.mark.parametrize(
        "param, call",
        [
            ("kind", lambda: gap_spec(gapped_example(), 0.5, "bogus")),
            ("kind", lambda: TransformSpec(kind="bogus", p=0.5, lq=0.0, rq=3.0)),
            ("h", lambda: TransformSpec(kind=COLLAPSE_SHIFT, p=0.5, lq=0.0, rq=3.0)),
        ],
        ids=["gap_spec-kind", "spec-kind", "missing-h"],
    )
    def test_bad_spec_names_param(self, param, call):
        with pytest.raises(ParameterOutOfRange) as info:
            call()
        assert info.value.param == param


class TestPathwiseDistributionCommutation:
    def push_through(self, d, spec, value_map):
        # the value-level route: map each atom through the pathwise transform,
        # then hand the raw image pairs to the public constructor to merge
        # collisions and renormalize
        return make_discrete((value_map(spec, v), q) for v, q in d.as_pairs())

    def test_binarize_commutes(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d, p = random_gapped_case(rng)
            spec = gap_spec(d, p, BINARIZE)
            assert self.push_through(d, spec, binarize_value) == binarize(d, p)

    def test_collapse_commutes(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d, p = random_gapped_case(rng)
            spec = gap_spec(d, p, COLLAPSE_SHIFT)
            assert self.push_through(d, spec, collapse_shift_value) == collapse_shift(
                d, p
            )


class TestDivergenceTransfer:
    def test_binarized_switch_forces_original_switch(self):
        # whenever the binarized path's left quantile moves between two
        # consecutive sample sizes, the original path's left quantile must
        # move somewhere in between (here: stride 1, so at the same step)
        d = gapped_example()
        p = 0.5
        spec = gap_spec(d, p, BINARIZE)
        two_point = binarize(d, p)
        for seed in range(10):
            draws = sample_stream(d, seed, 4000)
            s_x = EmpiricalSample.from_distribution(d)
            s_y = EmpiricalSample.from_distribution(two_point)
            lq_x, lq_y = [], []
            for x in draws:
                s_x.insert(float(x))
                s_y.insert(binarize_value(spec, float(x)))
                lq_x.append(s_x.left_quantile(p))
                lq_y.append(s_y.left_quantile(p))
            lq_x = np.array(lq_x)
            lq_y = np.array(lq_y)
            y_switch = lq_y[1:] != lq_y[:-1]
            x_switch = lq_x[1:] != lq_x[:-1]
            assert np.all(x_switch[y_switch])
            assert y_switch.any()  # the walk does cross at these sizes
