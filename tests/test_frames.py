"""Frame monitor: grid projection, evaluation, scoring, sharing, reach."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecontracts import frames
from tracecontracts.frames import (
    EvalStats,
    Reach,
    TraceEnvironment,
    UnknownAtomError,
    _stacked_scores,
    derive_edge_atoms,
    evaluate,
    obligation_score,
    radius_frames,
    score,
    share_subformulas,
)
from tracecontracts.parser import (
    And,
    Atom,
    Future,
    Implies,
    Near,
    node_count,
    parse_text,
)
from tracecontracts.streaming import StreamingMonitor

from gen import naive_evaluate, random_env, random_formula


def bools(values):
    return [bool(v) for v in values]


class TestRadiusFrames:
    def test_examples(self):
        assert radius_frames(0.04, 0.02) == 2
        assert radius_frames(0.02, 0.02) == 1
        assert radius_frames(0.021, 0.02) == 2

    def test_subframe_radius_projects_to_one_frame(self):
        assert radius_frames(0.001, 0.02) == 1

    def test_float_noise_near_exact_multiples(self):
        assert radius_frames(0.06, 0.02) == 3
        assert radius_frames(0.12, 0.02) == 6
        assert radius_frames(0.07, 0.01) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            radius_frames(0.0, 0.02)
        with pytest.raises(ValueError):
            radius_frames(0.04, 0.0)


class TestEvaluate:
    def test_near_window_example(self):
        env = TraceEnvironment(0.02, 6, {"p": [0, 0, 1, 0, 0, 0]})
        got = evaluate(parse_text("N[0.04] p"), env)
        assert bools(got) == bools([1, 1, 1, 1, 1, 0])

    def test_always_on_all_true(self):
        env = TraceEnvironment(0.02, 5, {"p": [1, 1, 1, 1, 1]})
        assert bools(evaluate(parse_text("G[0.07] p"), env)) == [True] * 5

    def test_empty_grid_yields_empty_valuations(self):
        env = TraceEnvironment(0.02, 0, {"a": [], "b": []})
        for source in ("a", "!a", "a & b", "N[0.04] a", "a U[0.1] b"):
            assert evaluate(parse_text(source), env).shape == (0,)

    def test_unknown_atom_error_carries_name(self):
        env = TraceEnvironment(0.02, 3, {"a": [1, 0, 1]})
        with pytest.raises(UnknownAtomError) as excinfo:
            evaluate(parse_text("a & missing"), env)
        assert excinfo.value.name == "missing"

    def test_matches_window_scan_oracle_on_random_cases(self):
        rng = random.Random(11)
        for _ in range(250):
            n = rng.randint(0, 60)
            env = random_env(rng, n)
            formula = random_formula(rng, rng.randint(0, 4))
            assert bools(evaluate(formula, env)) == naive_evaluate(formula, env)

    def test_environment_validates_lengths(self):
        with pytest.raises(ValueError):
            TraceEnvironment(0.02, 3, {"a": [1, 0]})

    @pytest.mark.parametrize("radius", ["92233720368547747.0", "10000000000000000000000000.0"])
    def test_until_radius_past_int64_reads_as_past_the_trace(self, radius):
        # About 2**63 - 2048 frames once wrapped idx + r in int64, and 1e25 s
        # overflowed; both must agree with a radius just past the trace.
        rng = random.Random(17)
        for n in (3000, 300):
            env = random_env(rng, n, atoms=("a", "b"), h=0.01)
            longer = f"{(n + 1) / 100}"
            assert radius_frames(float(longer), 0.01) == n + 1
            got = evaluate(parse_text(f"a U[{radius}] b"), env)
            assert np.array_equal(got, evaluate(parse_text(f"a U[{longer}] b"), env))
        assert bools(got) == naive_evaluate(parse_text(f"a U[{radius}] b"), env)


class TestStrictInputs:
    @pytest.mark.parametrize("values", [[0, 2, 0], [1, -1, 0], [0.0, float("nan"), 1.0]])
    def test_non_binary_mask_values_rejected(self, values):
        with pytest.raises(ValueError, match="0/1"):
            TraceEnvironment(0.02, 3, {"a": values})
        with pytest.raises(ValueError, match="0/1"):
            derive_edge_atoms(values, [0, 0, 0], 0.02)

    def test_binary_values_of_any_dtype_accepted(self):
        for values in ([0, 1, 1], [0.0, 1.0, 1.0], np.array([False, True, True])):
            env = TraceEnvironment(0.02, 3, {"a": values})
            assert bools(env.atoms["a"]) == [False, True, True]

    @pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0, -0.02, float("-inf")])
    def test_frame_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="frame step"):
            TraceEnvironment(h, 2, {"a": [0, 1]})
        with pytest.raises(ValueError, match="frame step"):
            StreamingMonitor(Atom("a"), h)
        with pytest.raises(ValueError, match="frame step"):
            share_subformulas([Atom("a")], h)
        # The plan memo keeps no refused step: asking again raises again.
        with pytest.raises(ValueError, match="frame step"):
            share_subformulas([Atom("a")], h)


class TestScore:
    def test_small_sample_counts(self):
        # four obligated frames, two satisfied
        env = TraceEnvironment(0.02, 6, {"phi": [1, 0, 1, 0, 1, 1], "obl": [1, 1, 1, 1, 0, 0]})
        result = score(parse_text("phi"), parse_text("obl"), env)
        assert result.obligated == 4
        assert result.satisfied == 2
        assert result.violated == 2
        assert result.score == 0.5

    def test_empty_obligation_scores_one(self):
        env = TraceEnvironment(0.02, 4, {"phi": [0, 0, 0, 0], "obl": [0, 0, 0, 0]})
        result = score(parse_text("phi"), parse_text("obl"), env)
        assert result.score == 1.0
        assert result.obligated == 0

    def test_stacked_scores_reuse_one_scratch_buffer(self):
        # Scoring many clauses over a (G, n) stack allocates no frame array:
        # the conjunctions go into one scratch buffer.  obligation_score makes
        # an n-byte temporary per call, which the same probe sees.
        rng = np.random.default_rng(5)
        values, masks = rng.random((2, 3, 100_000)) < 0.5
        scratch = np.empty_like(values)
        _stacked_scores(values, masks, scratch)  # warm any lazy state
        tracemalloc.start()
        try:
            for _ in range(5):
                scores = _stacked_scores(values, masks, scratch)
            _, stacked_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            obligation_score(values[0], masks[0])
            _, single_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stacked_peak < 10_000 < 100_000 <= single_peak
        # Plain Python numbers, as obligation_score returns: the reprs agree.
        assert repr(scores) == repr([obligation_score(v, m) for v, m in zip(values, masks)])

    def test_vacuity_control_restricts_to_antecedent(self):
        env = TraceEnvironment(0.02, 3, {"a": [1, 1, 0], "b": [1, 0, 0]})
        restricted = score(parse_text("a -> b"), parse_text("a"), env)
        assert restricted.score == 0.5
        # direct enumeration: implication equals consequent on a-frames
        plain = score(parse_text("b"), parse_text("a"), env)
        assert restricted.score == plain.score

    def test_partition_identity_random(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(0, 64)
            env = random_env(rng, n, atoms=("phi", "obl"))
            result = score(Atom("phi"), Atom("obl"), env)
            assert result.satisfied + result.violated == result.obligated


class TestEdgeAtoms:
    def test_example_edges(self):
        env = derive_edge_atoms([0, 1, 1, 0], [0, 0, 0, 0], 0.02)
        assert bools(env.atoms["ref_onset"]) == bools([0, 1, 0, 0])
        assert bools(env.atoms["ref_offset"]) == bools([0, 0, 0, 1])

    def test_all_zero_masks(self):
        env = derive_edge_atoms([0, 0, 0], [0, 0, 0], 0.02)
        for name in ("ref_onset", "ref_offset", "pred_onset", "pred_offset"):
            assert not env.atoms[name].any()

    def test_left_boundary_counts_as_onset(self):
        env = derive_edge_atoms([1, 1, 0], [1, 0, 0], 0.02)
        assert env.atoms["ref_onset"][0]
        assert env.atoms["pred_onset"][0]

    def test_run_to_trace_end_has_no_offset_frame(self):
        env = derive_edge_atoms([0, 1, 1], [0, 0, 0], 0.02)
        assert not env.atoms["ref_offset"].any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            derive_edge_atoms([0, 1], [0, 1, 0], 0.02)

    def test_edges_match_frame_definitions(self):
        # Onset: active after inactive or the left boundary; offset: inactive
        # after active.  Lengths 0-2 and random masks, each its own array.
        rng = random.Random(29)
        masks = [[], [0], [1], [1, 1], [0, 1], [1, 0]]
        masks += [[rng.random() < 0.5 for _ in range(rng.randint(3, 40))] for _ in range(60)]
        for mask in masks:
            env = derive_edge_atoms(mask, mask, 0.02)
            prev = [False] + [bool(v) for v in mask[:-1]]
            assert bools(env.atoms["ref_onset"]) == [bool(v) and not p for v, p in zip(mask, prev)]
            assert bools(env.atoms["ref_offset"]) == [not v and p for v, p in zip(mask, prev)]
            assert not np.shares_memory(env.atoms["ref_onset"], env.atoms["pred_onset"])


class TestSharing:
    def test_duplicate_subtrees_collapse(self):
        formula = And(Near(Atom("a"), 0.04), Near(Atom("a"), 0.04))
        plan = share_subformulas([formula], 0.02)
        assert plan.node_count == 3

    def test_no_duplicates_keeps_tree_size(self):
        formula = parse_text("a -> N[0.04] b & !c")
        plan = share_subformulas([formula], 0.02)
        assert plan.node_count == node_count(formula)

    def test_plan_keeps_roots_and_atoms_only(self):
        # The window dies at the implication, which reuses its array; the
        # returned valuations are the root's and the atoms'.
        formula = parse_text("a -> N[0.04] b")
        plan = share_subformulas([formula], 0.02)
        window = plan.nodes.index(formula.right)
        assert plan.roots == (formula,)
        assert plan.dying[plan.nodes.index(formula)] == (window,)
        env = random_env(random.Random(3), 30, atoms=("a", "b"))
        values = plan.evaluate(env.atoms)
        assert set(values) == {formula, Atom("a"), Atom("b")}
        assert bools(values[formula]) == naive_evaluate(formula, env)
        # A window that is also a root stays whole, and nothing dies.
        both = share_subformulas([formula, formula.right], 0.02)
        assert both.dying == ((),) * both.node_count
        values = both.evaluate(env.atoms)
        assert bools(values[formula.right]) == naive_evaluate(formula.right, env)

    def test_plan_matches_tree_evaluation_on_random_inputs(self):
        # Several formulas in one plan share their common subtrees; each
        # root's valuation equals the window-scan oracle's.
        rng = random.Random(77)
        for _ in range(150):
            env = random_env(rng, rng.randint(0, 50))
            formulas = [random_formula(rng, rng.randint(0, 4)) for _ in range(3)]
            formulas.append(And(formulas[0], formulas[1]))
            values = share_subformulas(formulas, env.frame_step).evaluate(env.atoms)
            for formula in formulas:
                assert bools(values[formula]) == naive_evaluate(formula, env)

    def test_the_memo_holds_at_most_its_bound(self):
        frames._plan.cache_clear()
        bound = frames._PLAN_MEMO_SIZE
        formulas = [Future(Atom("a"), 0.01 * (k + 1)) for k in range(bound + 3)]
        for formula in formulas:
            share_subformulas([formula], 0.01)
        info = frames._plan.cache_info()
        assert info.maxsize == info.currsize == bound
        assert info.misses == bound + 3
        share_subformulas((formulas[-1],), 0.01)  # still kept, whatever the iterable
        share_subformulas([formulas[0]], 0.01)  # dropped: planned again
        info = frames._plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, bound + 4, bound)

    def test_a_shared_plan_is_read_only(self):
        plan = share_subformulas([parse_text("a -> N[0.04] b")], 0.02)
        with pytest.raises(TypeError):
            plan.reach[Atom("c")] = plan.reach[Atom("a")]
        with pytest.raises(AttributeError):
            plan.radii = ()

    def test_an_unknown_atom_has_its_name_and_the_first_span(self):
        # Equal formulas share one plan, so the span is the first one's.
        frames._plan.cache_clear()
        env = random_env(random.Random(5), 10, atoms=("a",))
        first, respaced = parse_text("a & zz"), parse_text("   a & zz")
        for formula in (first, respaced):
            with pytest.raises(UnknownAtomError) as excinfo:
                evaluate(formula, env)
            assert excinfo.value.name == "zz"
            assert excinfo.value.span == first.right.span != respaced.right.span


def reach(formula, h=0.02) -> Reach:
    return share_subformulas([formula], h).reach[formula]


class TestLookahead:
    def test_atom_and_near(self):
        assert reach(Atom("a")).seconds == 0.0
        assert reach(Near(Atom("a"), 0.04)).seconds == pytest.approx(0.04)

    def test_nested_sums(self):
        formula = Implies(Atom("a"), Near(Future(Atom("b"), 0.1), 0.04))
        assert reach(formula).seconds == pytest.approx(0.14)

    def test_frame_lookahead_projects_per_operator(self):
        formula = Near(Future(Atom("b"), 0.03), 0.03)
        # each 0.03 projects to 2 frames on the 0.02 grid: 4, not ceil(0.06/0.02)=3
        assert reach(formula, 0.02).frames == 4
        # only the outer neighborhood looks left
        assert reach(formula, 0.02).backward == 2


class TestInvariants:
    def test_neighborhood_monotonicity_random(self):
        rng = random.Random(13)
        for _ in range(200):
            env = random_env(rng, rng.randint(1, 50))
            child = random_formula(rng, rng.randint(0, 3))
            eps = rng.randint(1, 5) * env.frame_step
            delta = eps + rng.randint(0, 5) * env.frame_step
            small = evaluate(Near(child, eps), env)
            large = evaluate(Near(child, delta), env)
            assert not (small & ~large).any()

    def test_frame_extensionality(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(0, 40)
            env1 = random_env(rng, n)
            extra = {name: values for name, values in env1.atoms.items()}
            extra["unused"] = np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool)
            env2 = TraceEnvironment(env1.frame_step, n, extra)
            formula = random_formula(rng, rng.randint(0, 4))
            assert bools(evaluate(formula, env1)) == bools(evaluate(formula, env2))

    def test_strict_hierarchy_witness(self):
        h = 0.02
        env_a = TraceEnvironment(h, 2, {"a": [0, 0]})
        env_b = TraceEnvironment(h, 2, {"a": [0, 1]})
        future = Future(Atom("a"), h)
        assert bool(evaluate(future, env_a)[0]) != bool(evaluate(future, env_b)[0])
        # no depth-zero formula separates them at frame zero
        depth_zero = [Atom("a")]
        for _ in range(2):
            depth_zero = depth_zero + [And(f, g) for f in depth_zero for g in depth_zero]
            depth_zero = depth_zero + [Implies(f, g) for f in depth_zero[:4] for g in depth_zero[:4]]
        from tracecontracts.parser import Not, Or

        depth_zero += [Not(f) for f in depth_zero]
        depth_zero += [Or(f, g) for f in depth_zero[:6] for g in depth_zero[:6]]
        for formula in depth_zero:
            assert bool(evaluate(formula, env_a)[0]) == bool(evaluate(formula, env_b)[0])

    def test_until_dominates_its_right_side_pointwise(self):
        # the right witness at the current frame needs no left-side frames
        rng = random.Random(19)
        from tracecontracts.parser import Until

        for _ in range(200):
            env = random_env(rng, rng.randint(0, 50))
            left = random_formula(rng, rng.randint(0, 2))
            right = random_formula(rng, rng.randint(0, 2))
            radius = rng.randint(1, 5) * env.frame_step
            until = evaluate(Until(left, right, radius), env)
            witness = evaluate(right, env)
            assert not (witness & ~until).any()

    def test_linearity_by_node_visit_counters(self):
        rng = random.Random(23)
        formula = random_formula(rng, 4)
        env_1 = random_env(rng, 64)
        env_2 = random_env(rng, 128)
        stats_1, stats_2 = EvalStats(), EvalStats()
        evaluate(formula, env_1, stats_1)
        evaluate(formula, env_2, stats_2)
        unique = share_subformulas([formula], 0.02).node_count
        assert stats_1.node_visits == stats_2.node_visits == unique
        assert stats_2.element_ops == 2 * stats_1.element_ops


@given(st.lists(st.booleans(), max_size=64), st.lists(st.booleans(), max_size=64))
@settings(max_examples=200, deadline=None)
def test_partition_identity_property(phi, obl):
    n = min(len(phi), len(obl))
    env = TraceEnvironment(0.02, n, {"phi": phi[:n], "obl": obl[:n]})
    result = score(Atom("phi"), Atom("obl"), env)
    assert result.satisfied + result.violated == result.obligated
    if result.obligated:
        assert result.score == result.satisfied / result.obligated
    else:
        assert result.score == 1.0
