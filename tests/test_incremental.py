"""Incremental (subtree-memoized) rebuilds must be bit-identical to
from-scratch builds.

When the nonzero mask is unchanged, the memo supplies previous-build
DP arrays for subtrees whose counts are unchanged; because those
arrays are exactly what an identical solve on identical content
produces, the curve bytes and the reconstructed bucket lists must
match a from-scratch build by the naive oracle and by the fast kernels
with zero tolerance — for both semantics and arbitrary count
perturbations, including ones that change the pruned structure (those
rebuild cold).

Only the ``fast`` kernel mode memoizes, so every test that asserts
memo reuse pins it explicitly (the suite also runs under
``REPRO_KERNELS=naive``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UIDDomain, get_metric
from repro.algorithms import incremental as incmod
from repro.algorithms.construct import build
from repro.algorithms.kernels import use_kernel_mode
from repro.algorithms.nonoverlapping import build_nonoverlapping
from repro.core.hierarchy import PrunedHierarchy
from repro.data import generate_subnet_table
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    read_journal,
    use_journal,
    use_registry,
)
from repro.serving import SharedServingCache
from repro.streams import ControlCenter

BUDGETS = {"nonoverlapping": 16, "overlapping": 10}

TABLE = generate_subnet_table(UIDDomain(10), seed=5)
METRIC = get_metric("rms")


def _base_counts(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 60, len(TABLE)).astype(float)


def _buckets(fn):
    return [
        (b.node, getattr(b, "sparse_group_node", None)) for b in fn.buckets
    ]


def _scratch(algorithm, counts, budget, mode="naive", **options):
    """A from-scratch build in kernel ``mode`` (the naive oracle by
    default)."""
    with use_kernel_mode(mode):
        return build(
            algorithm, PrunedHierarchy(TABLE, counts), METRIC, budget,
            **options,
        )


def _check_pair(algorithm, counts, memo, scratch_mode="naive", **options):
    """Build from scratch (in ``scratch_mode``) + incremental (fast)
    from the same counts; assert bit-identity and return the refreshed
    memo + session stats."""
    budget = BUDGETS[algorithm]
    full = _scratch(algorithm, counts, budget, scratch_mode, **options)
    h_inc = PrunedHierarchy(TABLE, counts)
    with use_kernel_mode("fast"):
        session = incmod.new_session(
            algorithm, h_inc, METRIC, budget, memo, **options
        )
        incr = build(
            algorithm, h_inc, METRIC, budget, memo=session, **options
        )
    assert full.curve.tobytes() == incr.curve.tobytes()
    for b in (1, 3, budget):
        assert _buckets(full.function_at(b)) == _buckets(
            incr.function_at(b)
        )
    return session.finish(), session.stats()


# Kernel mode of the from-scratch side; the incremental side is fast.
SCRATCH_MODES = ("naive", "fast")


class TestBitIdentity:
    @pytest.mark.parametrize("mode", SCRATCH_MODES)
    @pytest.mark.parametrize(
        "algorithm", ("nonoverlapping", "overlapping")
    )
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_random_perturbation_chain(self, mode, algorithm, data):
        counts = _base_counts()
        n = len(counts)
        memo, _ = _check_pair(algorithm, counts, None, mode)
        steps = data.draw(st.integers(1, 3))
        for _ in range(steps):
            idx = data.draw(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=12,
                    unique=True,
                )
            )
            vals = data.draw(
                st.lists(
                    st.integers(0, 200),  # 0 changes pruned shape
                    min_size=len(idx), max_size=len(idx),
                )
            )
            counts = counts.copy()
            counts[idx] = np.asarray(vals, dtype=float)
            if counts.sum() == 0:
                counts[0] = 1.0  # empty windows are not built
            memo, _ = _check_pair(algorithm, counts, memo, mode)

    @pytest.mark.parametrize("mode", SCRATCH_MODES)
    def test_localized_drift_reuses_subtrees(self, mode):
        counts = _base_counts()
        for algorithm in ("nonoverlapping", "overlapping"):
            memo, first = _check_pair(algorithm, counts, None, mode)
            assert first["reused_subtrees"] == 0  # cold start
            drifted = counts.copy()
            nz = np.nonzero(drifted)[0]
            drifted[nz[:3]] *= 2.0
            _, stats = _check_pair(algorithm, drifted, memo, mode)
            assert stats["dirty_groups"] == 3
            assert stats["reused_fraction"] > 0.3
            assert stats["dirty_subtrees"] > 0

    def test_identical_counts_reuse_everything(self):
        counts = _base_counts()
        memo, _ = _check_pair("nonoverlapping", counts, None)
        _, stats = _check_pair("nonoverlapping", counts.copy(), memo)
        assert stats["dirty_subtrees"] == 0
        assert stats["reused_fraction"] == 1.0
        assert stats["dirty_groups"] == 0

    def test_overlapping_sparse_off_round_trips(self):
        counts = _base_counts()
        memo, _ = _check_pair("overlapping", counts, None, sparse=False)
        drifted = counts.copy()
        drifted[np.nonzero(drifted)[0][:2]] += 7.0
        _, stats = _check_pair(
            "overlapping", drifted, memo, sparse=False
        )
        assert stats["reused_subtrees"] > 0


def _sparse_counts(seed=0):
    """Base counts with every fourth group empty."""
    counts = _base_counts(seed)
    counts[::4] = 0.0
    return counts


def _restructured(counts, k=3):
    """Zero ``k`` nonzero groups and revive ``k`` empty ones: the
    nonzero mask changes, so the pruned structure does."""
    out = counts.copy()
    nz = np.nonzero(out)[0]
    zero = np.nonzero(out == 0)[0]
    out[nz[:k]] = 0.0
    out[zero[:k]] = 17.0
    return out


class TestRestructuring:
    """A rebuild whose nonzero mask changed runs cold: the full batched
    sweep, with a complete memo recorded for the next rebuild."""

    @pytest.mark.parametrize("algorithm", ("nonoverlapping", "overlapping"))
    def test_restructuring_rebuild_is_cold_and_identical(self, algorithm):
        counts = _sparse_counts()
        memo, _ = _check_pair(algorithm, counts, None)
        moved = _restructured(counts)
        memo, stats = _check_pair(algorithm, moved, memo)
        assert stats["reused_subtrees"] == 0
        assert stats["dirty_groups"] == 6
        # The cold rebuild's memo is complete: the next same-structure
        # rebuild re-merges only the drifted spine.
        drifted = moved.copy()
        drifted[np.nonzero(drifted)[0][:3]] *= 2.0
        _, stats = _check_pair(algorithm, drifted, memo)
        assert stats["dirty_groups"] == 3
        assert stats["reused_fraction"] > 0.3

    def test_foreign_memo_with_another_mask_is_not_reused(self):
        """A memo handed over through the cross-tenant cache from a
        window with a different nonzero mask seeds nothing."""
        budget = BUDGETS["nonoverlapping"]
        donor_counts = _sparse_counts(seed=1)
        counts = _restructured(donor_counts)
        cache = SharedServingCache()
        registry = MetricsRegistry()
        with use_registry(registry), use_kernel_mode("fast"):
            donor, tenant = (
                ControlCenter(
                    TABLE, METRIC, algorithm="nonoverlapping",
                    budget=budget, incremental=True, shared_cache=cache,
                )
                for _ in range(2)
            )
            donor.rebuild_function(donor_counts)
            reused = registry.counter("control.rebuild.subtrees.reused")
            function = tenant.rebuild_function(counts)
        assert cache.memo_hits == 1
        assert reused.value == 0
        assert tenant._curve_memo.counts.tobytes() == counts.tobytes()
        expected = _scratch("nonoverlapping", counts, budget)
        assert _buckets(function) == _buckets(expected.function_at(budget))


def _overlapping_build(counts, budget, memo=None, all_dirty=False, **options):
    """A fast overlapping build through a session (``memo`` may be
    ``None``: a cold session); ``all_dirty`` marks every node dirty
    on a carried arena.  Returns the result and the next memo."""
    h = PrunedHierarchy(TABLE, counts)
    with use_kernel_mode("fast"):
        session = incmod.new_session(
            "overlapping", h, METRIC, budget, memo, **options
        )
        if all_dirty:
            assert session.arena is not None
            session.dirty[:] = True
        result = build(
            "overlapping", h, METRIC, budget, memo=session, **options
        )
    return result, session.finish()


class TestOneOverlappingSweep:
    """Scratch, cold-session and same-structure overlapping builds run
    one sweep and differ only in the dirty mask (all, all, the count
    diff; an empty diff adopts the memo's arena)."""

    @pytest.mark.parametrize("sparse", (True, False))
    @pytest.mark.parametrize("budget", (1, 10))
    def test_scratch_cold_and_all_dirty_builds_agree(self, sparse, budget):
        counts = _sparse_counts(seed=4)
        scratch = _scratch("overlapping", counts, budget, "fast",
                           sparse=sparse)
        cold, memo = _overlapping_build(counts, budget, sparse=sparse)
        # Same mask, every count changed: the memo's structure is
        # reused, and every node is forced dirty on top.
        _, other = _overlapping_build(counts * 3.0, budget, sparse=sparse)
        forced, _ = _overlapping_build(
            counts, budget, other, all_dirty=True, sparse=sparse
        )
        # Nothing dirty: the carried arena is adopted as it is.
        adopted, again = _overlapping_build(
            counts, budget, memo, sparse=sparse
        )
        assert again.arena is memo.arena
        for result in (cold, forced, adopted):
            assert result.curve.tobytes() == scratch.curve.tobytes()
            for b in range(1, budget + 1):
                assert _buckets(result.function_at(b)) == _buckets(
                    scratch.function_at(b)
                )

    def test_cold_memo_arena_is_ragged(self):
        """The arena stores each node's ``depth x width`` conditioned
        block, not ``sum(depth)`` rows padded to the widest cap."""
        budget = 30
        counts = _base_counts()
        _, memo = _overlapping_build(counts, budget)
        arena = memo.arena
        depth = PrunedHierarchy(TABLE, counts).arrays.depth
        n = depth.shape[0]
        cells = int((depth * arena.blk_w).sum())
        nbytes = sum(
            v.nbytes for v in vars(arena).values()
            if isinstance(v, np.ndarray)
        )
        # float64 values + int8 flags + int32 splits per cell, the
        # bucket-case tables (at most n x (budget + 1)), and a few
        # per-node vectors.
        assert nbytes <= 13 * (cells + n * (budget + 1)) + 64 * (n + 1)

    def test_rebuild_leaves_its_memo_intact(self):
        """A rebuild patches a copy of the memo's arena: the memo can
        seed another rebuild, and the earlier build's result still
        reconstructs its own buckets."""
        budget = BUDGETS["overlapping"]
        counts = _base_counts()
        drifted = counts.copy()
        drifted[np.nonzero(drifted)[0][:5]] *= 4.0
        first, memo = _overlapping_build(counts, budget)
        before = [_buckets(first.function_at(b)) for b in (1, 5, budget)]
        _overlapping_build(drifted, budget, memo)
        again, _ = _overlapping_build(counts, budget, memo)
        expected = _scratch("overlapping", counts, budget)
        assert again.curve.tobytes() == expected.curve.tobytes()
        for b, buckets in zip((1, 5, budget), before):
            assert buckets == _buckets(expected.function_at(b))
            assert _buckets(first.function_at(b)) == buckets
            assert _buckets(again.function_at(b)) == buckets

    def test_shared_memo_survives_the_adopters_rebuild(self):
        """Tenant A adopts tenant B's memo through the shared cache and
        rebuilds from it; B's next rebuild still diffs against the
        counts its memo was built from, so it must find that memo's
        state unchanged."""
        budget = BUDGETS["overlapping"]
        counts = _base_counts(seed=2)
        counts[counts == 0] = 1.0
        later = counts.copy()
        later[0] += 5.0
        cache = SharedServingCache()
        with use_kernel_mode("fast"):
            b_center, a_center = (
                ControlCenter(
                    TABLE, METRIC, algorithm="overlapping", budget=budget,
                    incremental=True, shared_cache=cache,
                )
                for _ in range(2)
            )
            b_center.rebuild_function(counts)
            a_center.rebuild_function(counts * 3.0)
            function = b_center.rebuild_function(later)
        assert cache.memo_hits == 1
        expected = _scratch("overlapping", later, budget)
        assert _buckets(function) == _buckets(expected.function_at(budget))


class TestNonoverlappingArena:
    """Every fast nonoverlapping build fills one ragged arena; a
    same-structure rebuild re-merges its dirty nodes into a copy of
    the memo's."""

    def test_cold_same_structure_restructuring_chain(self):
        budget = BUDGETS["nonoverlapping"]
        counts = _sparse_counts(seed=3)
        memo, cold = _check_pair("nonoverlapping", counts, None)
        assert cold["reused_subtrees"] == 0
        drifted = counts.copy()
        drifted[np.nonzero(drifted)[0][:4]] += 9.5
        same, stats = _check_pair("nonoverlapping", drifted, memo)
        assert stats["reused_subtrees"] > 0 and stats["dirty_subtrees"] > 0
        # The layout is structural: the same offsets, new values.
        assert same.offsets is memo.offsets
        assert same.values is not memo.values
        assert same.splits is not memo.splits
        moved = _restructured(drifted)
        last, stats = _check_pair("nonoverlapping", moved, same)
        assert stats["reused_subtrees"] == 0
        n = PrunedHierarchy(TABLE, moved).arrays.node.size
        assert last.offsets.shape == (n + 1,)
        assert last.values.size == last.splits.size == last.offsets[-1]
        # The arena holds the tables and nothing else.
        assert last.values.size <= (n // 2) * (budget + 1)

    def test_shared_memo_survives_the_adopters_rebuild(self):
        """The nonoverlapping twin of the overlapping test: tenant A
        adopts tenant B's memo and rebuilds from it; B's next rebuild
        diffs against its own memo's counts, so it must find that
        memo's arena unchanged."""
        budget = BUDGETS["nonoverlapping"]
        counts = _base_counts(seed=2)
        counts[counts == 0] = 1.0
        later = counts.copy()
        later[0] += 5.0
        cache = SharedServingCache()
        with use_kernel_mode("fast"):
            b_center, a_center = (
                ControlCenter(
                    TABLE, METRIC, algorithm="nonoverlapping",
                    budget=budget, incremental=True, shared_cache=cache,
                )
                for _ in range(2)
            )
            b_center.rebuild_function(counts)
            a_center.rebuild_function(counts * 3.0)
            function = b_center.rebuild_function(later)
        assert cache.memo_hits == 1
        expected = _scratch("nonoverlapping", later, budget)
        assert _buckets(function) == _buckets(expected.function_at(budget))


class TestMemoKeying:
    def test_config_change_invalidates_memo(self):
        counts = _base_counts()
        memo, _ = _check_pair("nonoverlapping", counts, None)
        # Same counts, different budget: nothing may be spliced.
        h = PrunedHierarchy(TABLE, counts)
        with use_kernel_mode("fast"):
            session = incmod.new_session(
                "nonoverlapping", h, METRIC,
                BUDGETS["nonoverlapping"] + 4, memo,
            )
            build_nonoverlapping(
                h, METRIC, BUDGETS["nonoverlapping"] + 4, memo=session
            )
        assert session.stats()["reused_subtrees"] == 0

    def test_kernel_mode_is_not_part_of_the_key(self):
        keys = []
        for mode in ("naive", "fast"):
            with use_kernel_mode(mode):
                keys.append(
                    incmod.memo_config_key("overlapping", METRIC, 8, {})
                )
        assert keys[0] == keys[1]

    @pytest.mark.parametrize(
        "algorithm", ("nonoverlapping", "overlapping")
    )
    def test_mode_switches_between_rebuilds(self, algorithm, tmp_path):
        """fast -> naive -> fast: the naive step builds from scratch
        and journals no reuse fields; the third step seeds from the
        first step's memo, which the naive step left in place."""
        budget = BUDGETS[algorithm]
        steps = [_base_counts(seed=7)]
        for k in (1, 2):
            drifted = steps[-1].copy()
            drifted[np.nonzero(drifted)[0][3 * k : 3 * k + 3]] *= 2.0
            steps.append(drifted)
        registry = MetricsRegistry()
        path = str(tmp_path / "switch.journal")
        reused = []
        with use_registry(registry), use_journal(EventJournal(path)):
            center = ControlCenter(
                TABLE, METRIC, algorithm=algorithm, budget=budget,
                incremental=True,
            )
            counter = registry.counter("control.rebuild.subtrees.reused")
            for mode, counts in zip(("fast", "naive", "fast"), steps):
                before = counter.value
                with use_kernel_mode(mode):
                    function = center.rebuild_function(counts)
                reused.append(counter.value - before)
                expected = _scratch(algorithm, counts, budget)
                assert _buckets(function) == _buckets(
                    expected.function_at(budget)
                )
        rebuilds = [
            e for e in read_journal(path) if e["event"] == "rebuild"
        ]
        assert len(rebuilds) == 3
        assert "dirty_subtrees" in rebuilds[0]
        assert "dirty_subtrees" not in rebuilds[1]
        assert "reused_fraction" not in rebuilds[1]
        assert rebuilds[2]["reused_fraction"] > 0.0
        assert reused[0] == 0 and reused[1] == 0
        assert reused[2] > 0

    def test_unsupported_algorithms_are_rejected(self):
        assert not incmod.supports_incremental("lpm_greedy", {})
        assert not incmod.supports_incremental(
            "nonoverlapping", {"low_memory": True}
        )
        assert incmod.supports_incremental("overlapping", {})
        h = PrunedHierarchy(TABLE, _base_counts())
        with pytest.raises(ValueError):
            incmod.new_session("lpm_greedy", h, METRIC, 8, None)

    def test_low_memory_with_memo_rejected(self):
        h = PrunedHierarchy(TABLE, _base_counts())
        with use_kernel_mode("fast"):
            session = incmod.new_session(
                "nonoverlapping", h, METRIC, 8, None
            )
        with pytest.raises(ValueError):
            build_nonoverlapping(h, METRIC, 8, low_memory=True,
                                 memo=session)


class TestControlCenterIncremental:
    def _counts_pair(self):
        counts1 = _base_counts(seed=3)
        counts2 = counts1.copy()
        counts2[np.nonzero(counts2)[0][:4]] *= 3.0
        return counts1, counts2

    def test_journal_and_counters(self, tmp_path):
        counts1, counts2 = self._counts_pair()
        registry = MetricsRegistry()
        path = str(tmp_path / "inc.journal")
        with use_registry(registry), use_journal(EventJournal(path)):
            center = ControlCenter(
                TABLE, METRIC, algorithm="nonoverlapping", budget=16,
                incremental=True,
            )
            with use_kernel_mode("fast"):
                center.rebuild_function(counts1)
                center.rebuild_function(counts2)
        rebuilds = [
            e for e in read_journal(path) if e["event"] == "rebuild"
        ]
        assert len(rebuilds) == 2
        for event in rebuilds:
            assert "dirty_subtrees" in event
            assert "reused_fraction" in event
        assert rebuilds[0]["reused_fraction"] == 0.0
        assert rebuilds[1]["reused_fraction"] > 0.0
        assert registry.counter("control.rebuild.subtrees.reused").value > 0
        assert registry.counter("control.rebuild.subtrees.dirty").value > 0

    def test_flag_off_journal_has_no_incremental_fields(self, tmp_path):
        counts1, counts2 = self._counts_pair()
        path = str(tmp_path / "plain.journal")
        with use_journal(EventJournal(path)):
            center = ControlCenter(
                TABLE, METRIC, algorithm="nonoverlapping", budget=16,
            )
            center.rebuild_function(counts1)
            center.rebuild_function(counts2)
        for event in read_journal(path):
            if event["event"] == "rebuild":
                assert "dirty_subtrees" not in event
                assert "reused_fraction" not in event

    def test_functions_identical_with_and_without_flag(self):
        counts1, counts2 = self._counts_pair()
        for algorithm in ("nonoverlapping", "overlapping"):
            plain = ControlCenter(
                TABLE, METRIC, algorithm=algorithm, budget=12,
            )
            inc = ControlCenter(
                TABLE, METRIC, algorithm=algorithm, budget=12,
                incremental=True,
            )
            for counts in (counts1, counts2, counts1 * 2.0):
                f_plain = plain.rebuild_function(counts)
                f_inc = inc.rebuild_function(counts)
                assert _buckets(f_plain) == _buckets(f_inc)
                assert plain.function_version == inc.function_version

    def test_incremental_with_unsupported_algorithm_is_inert(self):
        counts1, counts2 = self._counts_pair()
        center = ControlCenter(
            TABLE, METRIC, algorithm="lpm_greedy", budget=12,
            incremental=True,
        )
        assert not center.incremental  # silently degraded to full
        center.rebuild_function(counts1)
        center.rebuild_function(counts2)
        assert center._curve_memo is None
