"""Tests for selectivity estimators and cost functions."""

import pytest

from repro.engine.cost import (
    btree_cost_estimate,
    cost_estimator,
    seqscan_cost,
    spgist_cost_estimate,
)
from repro.engine.catalog import default_catalog
from repro.engine.selectivity import (
    DEFAULT_CONT_SEL,
    DEFAULT_EQ_SEL,
    TableStats,
    contsel,
    eqsel,
    estimate_selectivity,
    likesel,
)
from repro.errors import CatalogError


class TestSelectivity:
    def test_eqsel_defaults_without_stats(self):
        assert eqsel(None) == DEFAULT_EQ_SEL

    def test_eqsel_uses_distinct_count(self):
        stats = TableStats(row_count=1000, distinct_count=500)
        assert eqsel(stats) == 1 / 500

    def test_eqsel_floor_at_one_row(self):
        stats = TableStats(row_count=10, distinct_count=100000)
        assert eqsel(stats) == 1 / 10

    def test_contsel_constant(self):
        assert contsel(None) == DEFAULT_CONT_SEL

    def test_likesel_decays_with_literal_chars(self):
        s1 = likesel(None, "a????")
        s3 = likesel(None, "abc??")
        assert s3 < s1 < 1.0

    def test_likesel_all_wildcards_keeps_everything(self):
        assert likesel(None, "????") == 1.0

    def test_likesel_position_of_wildcard_irrelevant(self):
        assert likesel(None, "?bcde") == likesel(None, "abcd?")

    def test_dispatch_clamps_to_unit_interval(self):
        assert 0.0 <= estimate_selectivity("likesel", None, "x" * 50) <= 1.0
        assert estimate_selectivity("unknown-proc", None) == DEFAULT_EQ_SEL

    def test_inequality_default_third(self):
        assert abs(estimate_selectivity("scalarltsel", None) - 1 / 3) < 1e-9


class TestCosts:
    STATS = TableStats(row_count=100_000, distinct_count=90_000)

    def test_seqscan_scales_with_pages_and_rows(self):
        small = seqscan_cost(10, 1_000)
        large = seqscan_cost(1_000, 100_000)
        assert large.total_cost > small.total_cost
        assert small.selectivity == 1.0

    def test_spgist_correlation_is_zero(self):
        est = spgist_cost_estimate(100, 3, self.STATS, 500, "eqsel")
        assert est.correlation == 0.0  # paper Section 4.2 item 2

    def test_btree_correlation_is_one(self):
        est = btree_cost_estimate(100, 3, self.STATS, 500, "eqsel")
        assert est.correlation == 1.0

    def test_startup_cost_tracks_page_height(self):
        shallow = spgist_cost_estimate(100, 2, self.STATS, 500, "eqsel")
        deep = spgist_cost_estimate(100, 6, self.STATS, 500, "eqsel")
        assert deep.startup_cost > shallow.startup_cost

    def test_selective_index_beats_seqscan(self):
        index = spgist_cost_estimate(100, 3, self.STATS, 2_000, "eqsel")
        seq = seqscan_cost(2_000, 100_000)
        assert index.total_cost < seq.total_cost

    def test_leading_wildcard_forces_full_btree_leaf_read(self):
        narrowed = btree_cost_estimate(
            500, 3, self.STATS, 2_000, "likesel", "ab???", op="?="
        )
        full = btree_cost_estimate(
            500, 3, self.STATS, 2_000, "likesel", "?b???", op="?="
        )
        assert full.total_cost > narrowed.total_cost

    def test_rtree_cost_mirrors_spgist_shape(self):
        r = cost_estimator("rtcostestimate")(100, 3, self.STATS, 500, "contsel")
        s = spgist_cost_estimate(100, 3, self.STATS, 500, "contsel")
        assert r.total_cost == s.total_cost

    def test_cost_ordering_operator(self):
        a = seqscan_cost(10, 100)
        b = seqscan_cost(100, 10_000)
        assert a < b

    def test_every_index_access_method_resolves_its_estimator(self):
        catalog = default_catalog()
        for amname in catalog.structures:
            entry = catalog.access_method(amname)
            assert callable(cost_estimator(entry.amcostestimate)), amname
        assert cost_estimator("hashcostestimate") is spgist_cost_estimate
        with pytest.raises(CatalogError):
            cost_estimator("-")
