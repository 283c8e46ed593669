"""Baseline schedulers: degenerate collapses, hand simulations, orderings."""

from __future__ import annotations

import hashlib
import logging
import tracemalloc

import numpy as np
import pytest

from birdcast import (
    DEFAULT_MCS_TABLE,
    GenParams,
    McsTable,
    ProblemInstance,
    broadcast_solve,
    dp_solve,
    evaluate_plan,
    generate,
    kmeanspp_solve,
    marginal_util_solve,
    refined_greedy,
    unicast_solve,
)
from birdcast import baselines
from birdcast.cli import SOLVERS
from birdcast.scenario import fig1_instance

from conftest import (equal_weights_instance, random_full_scale_instance,
                      random_instance, unwanted_grids_instance)
from reference import best_split, best_split_total, dp_user_order, run_tables
from test_solvers import GOLDEN_RATE_VECTOR_INSTANCES

ALL_BASELINES = (broadcast_solve, unicast_solve, marginal_util_solve,
                 kmeanspp_solve, lambda i: dp_solve(i),
                 lambda i: dp_solve(i, fair=True))


def single_user_instance() -> ProblemInstance:
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    return ProblemInstance(
        moi=np.array([[0.5, 1.0, 0.25]]),
        snr_db=(10.0,),
        mcs=table,
        grid_bytes=1000.0,
        bandwidth_hz=1e6,
        budget_s=0.009,  # fits two grids at the fast rate (4 ms each)
    )


def test_broadcast_single_user_equals_unicast():
    inst = single_user_instance()
    assert broadcast_solve(inst).utility == unicast_solve(inst).utility


def test_broadcast_takes_highest_total_weight_grids():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(
        moi=np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]),
        snr_db=(0.0, 0.0),
        mcs=table,
        grid_bytes=1000.0,
        bandwidth_hz=1e6,
        budget_s=0.017,  # 8 ms per grid: exactly two fit
    )
    res = broadcast_solve(inst)
    assert res.utility == 4.0  # two grids x two users
    # uniform weights: the tie-break keeps the two lowest grid indices
    assert np.array_equal(np.flatnonzero(res.plan.masks[0]), [0, 1])


def test_broadcast_empty_when_nobody_decodes(caplog):
    table = McsTable(rates=(1.0,), thresholds_db=(50.0,))
    inst = ProblemInstance(moi=np.array([[1.0]]), snr_db=(0.0,), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=1.0)
    with caplog.at_level(logging.WARNING, logger="birdcast.baselines"):
        res = broadcast_solve(inst)
    assert [r.getMessage() for r in caplog.records] == [
        "broadcast: dropping 1 user(s) with no decodable rate"]
    assert res.meta["dropped_users"] == [0]
    assert res.utility == 0.0 and res.plan.n_groups == 0


@pytest.mark.parametrize("solve, meta", [
    (broadcast_solve, {"dropped_users": [0, 1]}),
    (unicast_solve, {}),
    (kmeanspp_solve, {}),
    (lambda i: dp_solve(i), {}),
    (lambda i: dp_solve(i, fair=True), {}),
], ids=["broadcast", "unicast", "kmeanspp", "dp", "dp_fair"])
def test_group_baselines_empty_when_nobody_decodes(solve, meta):
    table = McsTable(rates=(1.0,), thresholds_db=(50.0,))
    inst = ProblemInstance(moi=np.array([[1.0, 0.5], [0.2, 0.0]]),
                           snr_db=(0.0, 3.0), mcs=table, grid_bytes=1000.0,
                           bandwidth_hz=1e6, budget_s=1.0)
    res = solve(inst)
    assert res.selection.items == frozenset()
    assert res.plan.groups == () and res.plan.rates_bps == ()
    assert res.plan.masks.shape == (0, 2)
    assert repr(res.utility) == "0.0" and repr(res.latency_s) == "0.0"
    assert res.gain_evaluations == 0
    assert res.meta == meta


def test_unicast_disjoint_interests_hand_sim():
    # both users decode only the base rate; disjoint single-grid interests;
    # budget fits three dedicated transmissions of 4 ms each
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    inst = ProblemInstance(
        moi=np.array([[1.0, 0.8, 0.0, 0.0], [0.0, 0.0, 0.9, 0.7]]),
        snr_db=(0.0, 0.0),
        mcs=table,
        grid_bytes=500.0,
        bandwidth_hz=1e6,
        budget_s=0.013,
    )
    res = unicast_solve(inst)
    # ratio order: 1.0, 0.9, 0.8 fit; 0.7 does not
    assert res.utility == pytest.approx(2.7)
    assert res.latency_s == pytest.approx(0.012)


def test_unicast_serves_the_lower_user_first_on_ties():
    # every weight is 1.0, so the two strong users' pairs tie on ratio;
    # the budget (14 ms) fits three 4 ms strong-rate sends, all user 0's
    res = unicast_solve(fig1_instance())
    assert res.plan.groups == ((0,),)
    assert np.flatnonzero(res.plan.masks[0]).tolist() == [0, 2, 3]
    assert res.utility == 3.0
    assert res.gain_evaluations == 8  # every positive (user, grid) pair


def test_unicast_plan_is_singleton_groups():
    rng = np.random.default_rng(60)
    inst = random_instance(rng)
    res = unicast_solve(inst)
    assert all(len(g) == 1 for g in res.plan.groups)
    assert evaluate_plan(inst, res.plan).feasible


def test_marginal_util_matches_refined_single_user():
    inst = single_user_instance()
    # one user: re-serving a grid at a lower rate can never help
    assert marginal_util_solve(inst).utility == refined_greedy(inst).utility


def test_marginal_util_strictly_below_refined_on_shared_grid():
    # one valuable grid, one strong and one weak user, generous budget;
    # the one-rate-per-grid commitment forfeits the weak user
    table = McsTable(rates=(1.0, 3.0), thresholds_db=(0.0, 10.0))
    inst = ProblemInstance(
        moi=np.array([[1.0], [1.0]]),
        snr_db=(10.0, 0.0),
        mcs=table,
        grid_bytes=1000.0,
        bandwidth_hz=1e6,
        budget_s=100.0,
    )
    assert marginal_util_solve(inst).utility == 1.0
    assert refined_greedy(inst).utility == 2.0


def test_marginal_util_plateaus_with_budget():
    rng = np.random.default_rng(61)
    inst = random_instance(rng, max_users=6, max_grids=8, max_rates=3)
    doc = inst.to_json()
    doc["budget_s"] = 1e9
    big = marginal_util_solve(ProblemInstance.from_json(doc))
    saturation_cost = max(big.latency_s, 1e-9)
    # every budget at or past the saturation cost yields the same utility
    for factor in (1.0, 1.5, 4.0):
        doc["budget_s"] = saturation_cost * factor
        res = marginal_util_solve(ProblemInstance.from_json(doc))
        assert res.utility == big.utility


def test_kmeans_single_cluster_equals_broadcast():
    # k-means++'s k=1 candidate: every decodable user in one group
    rng = np.random.default_rng(62)
    for _ in range(20):
        inst = random_instance(rng)
        users = np.flatnonzero(inst.top_rate >= 0)
        candidate = ([users], {"k": 1}) if users.size else ([], {})
        single = baselines._best_of(inst, [candidate], 0)
        assert single.utility == broadcast_solve(inst).utility


def test_kmeans_identical_snr_collapses():
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    inst = ProblemInstance(
        moi=np.random.default_rng(0).uniform(0, 1, (4, 5)),
        snr_db=(10.0,) * 4,
        mcs=table,
        grid_bytes=1000.0,
        bandwidth_hz=1e6,
        budget_s=0.01,
    )
    res = kmeanspp_solve(inst)
    assert res.utility == broadcast_solve(inst).utility


def test_kmeans_statistically_below_refined():
    rng = np.random.default_rng(63)
    wins = ties = losses = 0
    for _ in range(100):
        inst = random_instance(rng)
        km = kmeanspp_solve(inst).utility
        rg = refined_greedy(inst).utility
        if km < rg:
            wins += 1
        elif km == rg:
            ties += 1
        else:
            losses += 1
    # dominance is an empirical tendency, not a guarantee: allow rare upsets
    assert losses <= 5, f"kmeans beat refined greedy {losses} times"


def test_dp_single_user_equals_unicast():
    inst = single_user_instance()
    assert dp_solve(inst).utility == unicast_solve(inst).utility


def test_dp_identical_users_equal_broadcast():
    table = McsTable(rates=(1.0,), thresholds_db=(0.0,))
    moi = np.array([[0.9, 0.5, 0.1], [0.9, 0.5, 0.1]])
    inst = ProblemInstance(moi=moi, snr_db=(0.0, 0.0), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6,
                           budget_s=0.017)
    assert dp_solve(inst).utility == broadcast_solve(inst).utility


def test_dp_fair_never_above_unconstrained():
    rng = np.random.default_rng(64)
    for _ in range(40):
        inst = random_instance(rng)
        assert dp_solve(inst, fair=True).utility <= dp_solve(inst).utility + 1e-12


def assert_admits_exactly_the_floor(monkeypatch, moi: np.ndarray) -> None:
    """One group of two users may take 20 grids: dp_fair admits it at a
    floor of exactly its weakest member's share, as the fairness rule sums
    it over full rows, and rejects it one ulp above."""
    inst = ProblemInstance(moi=moi, snr_db=(0.0, 0.0),
                           mcs=McsTable(rates=(1.0,), thresholds_db=(0.0,)),
                           grid_bytes=1000.0, bandwidth_hz=1e6,
                           budget_s=0.161)  # 8 ms per grid: 20 fit
    chosen = np.argsort(-moi.sum(axis=0), kind="stable")[:20]
    floor = float((moi[:, chosen].sum(axis=1) / moi.sum(axis=1)).min())
    monkeypatch.setattr(baselines, "_DP_MAX_GROUPS", 1)
    monkeypatch.setattr(baselines, "_FAIRNESS_FLOOR", floor)
    assert dp_solve(inst, fair=True).meta == {"k": 1, "fair": True}
    monkeypatch.setattr(baselines, "_FAIRNESS_FLOOR",
                        float(np.nextafter(floor, 1.0)))
    assert dp_solve(inst, fair=True).meta["fair_infeasible"]


def test_dp_fair_admits_a_member_served_exactly_the_floor(monkeypatch):
    # the floor is the weakest member's share exactly as the fairness rule
    # computes it; a sum over the same grids in another order reads this
    # share 1 ulp lower, which must not reject the group
    moi = np.random.default_rng(0).uniform(0.0, 1.0, (2, 40))
    assert_admits_exactly_the_floor(monkeypatch, moi)


def test_dp_fair_floor_reads_full_rows_between_unwanted_grids(monkeypatch):
    # every other grid is wanted by nobody; a member's total summed over
    # the wanted grids only is another summation order than over its full
    # row, so the rule must still read full rows
    moi = np.zeros((2, 80))
    moi[:, 1::2] = np.random.default_rng(0).uniform(0.0, 1.0, (2, 40))
    assert_admits_exactly_the_floor(monkeypatch, moi)


def test_dp_with_no_wanted_grid_sends_nothing():
    # user 1 wants grid 2 but decodes no rate; the users who decode want
    # no grid, so no run has a grid to rank
    table = McsTable(rates=(1.0, 2.0), thresholds_db=(0.0, 10.0))
    moi = np.zeros((3, 5))
    moi[1, 2] = 0.7
    inst = ProblemInstance(moi=moi, snr_db=(12.0, -3.0, 4.0), mcs=table,
                           grid_bytes=1000.0, bandwidth_hz=1e6, budget_s=0.02)
    for fair in (False, True):
        doc = dp_solve(inst, fair=fair).to_json()
        assert doc == {"selection": [],
                       "plan": {"groups": [[0, 2]], "masks": [[0] * 5],
                                "n_grids": 5, "rate_bps": [1e6]},
                       "utility": 0.0, "latency_s": 0.0,
                       "gain_evaluations": 21,
                       "meta": {"k": 1, "fair": fair}}


def run_table_instances():
    rng = np.random.default_rng(71)
    for _ in range(80):
        yield unwanted_grids_instance(rng)
    rng = np.random.default_rng(72)
    yield equal_weights_instance(rng, 1, 0.5)
    yield equal_weights_instance(rng, 5, 0.0)
    for _ in range(12):
        yield equal_weights_instance(rng, int(rng.integers(1, 13)), 0.5)


def dp_run_tables(inst: ProblemInstance, floor: float):
    """The sorted users, their budgets and _segment_values' tables, or
    None when no user decodes a rate (dp_solve then values no run)."""
    ordered = dp_user_order(inst)
    if not ordered.size:
        return None
    n_groups = min(baselines._DP_MAX_GROUPS, ordered.size)
    budgets = [inst.budget_s / k for k in range(1, n_groups + 1)]
    return (ordered, budgets,
            *baselines._segment_values(inst, ordered, budgets, floor))


@pytest.mark.parametrize("floor", [0.0, baselines._FAIRNESS_FLOOR])
def test_segment_values_match_the_reference_run_tables(floor):
    for inst in run_table_instances():
        tables = dp_run_tables(inst, floor)
        if tables is None:
            continue
        ordered, budgets, values, fair = tables
        want_values, want_fair = run_tables(inst, ordered, budgets, floor)
        assert values.tobytes() == want_values.tobytes()
        if floor == 0.0:
            assert fair is None
            assert want_fair.tobytes() == want_values.tobytes()
        else:
            assert fair.tobytes() == want_fair.tobytes()


def check_best_splits(values: np.ndarray) -> None:
    """_best_splits gives every group count the reference recurrence's
    bounds; for at most 8 users, their total is the best of every split."""
    splits = baselines._best_splits(values)
    assert len(splits) == values.shape[0]
    for k, bounds in enumerate(splits):
        assert bounds == best_split(values[k], k + 1)
        if values.shape[1] > 8:
            continue
        best = best_split_total(values[k], k + 1)
        if bounds is None:
            assert best == -np.inf
        else:
            total = 0.0
            for i, j in bounds:
                total += float(values[k, i, j - 1])
            assert total == best


def test_best_splits_match_the_reference_recurrence():
    # the run tables of the DP, whose quarter weights tie
    rng = np.random.default_rng(73)
    for _ in range(60):
        tables = dp_run_tables(unwanted_grids_instance(rng),
                               baselines._FAIRNESS_FLOOR)
        if tables is not None:
            check_best_splits(tables[2])
            check_best_splits(tables[3])
    # small integers tie often; -inf runs may leave a count no split
    for _ in range(200):
        n = int(rng.integers(1, 13))
        n_counts = int(rng.integers(1, min(n, baselines._DP_MAX_GROUPS) + 1))
        values = rng.integers(0, 4, size=(n_counts, n, n)).astype(float)
        values[rng.random(values.shape) < rng.uniform(0.0, 0.6)] = -np.inf
        values[:, np.tri(n, k=-1, dtype=bool)] = -np.inf
        check_best_splits(values)


def test_dp_groups_contiguous_in_sorted_rate_order():
    rng = np.random.default_rng(65)
    for _ in range(20):
        inst = random_instance(rng, max_users=6)
        res = dp_solve(inst)
        if not res.plan.groups:
            continue
        rates = inst.user_max_rate_bps()
        order = sorted((n for n in range(inst.n_users) if rates[n] > 0),
                       key=lambda n: (-rates[n], n))
        flattened = []
        for g in res.plan.groups:
            flattened.extend(sorted(g, key=lambda n: order.index(n)))
        assert flattened == order


def test_every_baseline_output_is_feasible():
    rng = np.random.default_rng(66)
    for _ in range(30):
        inst = random_instance(rng)
        for solve in ALL_BASELINES:
            res = solve(inst)
            ev = evaluate_plan(inst, res.plan)
            assert ev.feasible
            assert ev.utility == res.utility
            assert res.latency_s <= inst.budget_s * (1 + 1e-9)


def test_fig1_orderings():
    inst = fig1_instance()
    birdcast = refined_greedy(inst).utility
    assert broadcast_solve(inst).utility < birdcast
    assert unicast_solve(inst).utility < broadcast_solve(inst).utility


def identical_users_instance() -> ProblemInstance:
    row = np.random.default_rng(70).uniform(0.0, 1.0, 40)
    return ProblemInstance(moi=np.tile(row, (5, 1)), snr_db=(20.0,) * 5,
                           mcs=DEFAULT_MCS_TABLE, grid_bytes=1600.0,
                           bandwidth_hz=100e6, budget_s=0.002)


def fair_infeasible_instance() -> ProblemInstance:
    # interest spread over 20 grids, budget for about one grid per user: no
    # partition serves anyone a tenth of their mass
    moi = np.random.default_rng(71).uniform(0.5, 1.0, (3, 20))
    return ProblemInstance(moi=moi, snr_db=(30.0, 15.0, 5.0),
                           mcs=DEFAULT_MCS_TABLE, grid_bytes=1600.0,
                           bandwidth_hz=100e6, budget_s=0.0003)


GOLDEN_BASELINE_INSTANCES = {
    "paper_default": lambda: generate(GenParams(seed=0))[1],
    "n32_5ms": lambda: generate(GenParams(n_users=32, budget_s=0.005, seed=0))[1],
    "n96_40x25": lambda: generate(GenParams(n_users=96, grid_h=40, grid_w=25,
                                            seed=0))[1],
    "one_user": lambda: generate(GenParams(n_users=1, seed=0))[1],
    "identical_users": identical_users_instance,
    "fair_infeasible": fair_infeasible_instance,
    # no grid is wanted
    "no_objects": lambda: generate(GenParams(n_objects=0, seed=0))[1],
    # 76 of 250 grids wanted, with a binding budget
    "sparse_interest": lambda: generate(GenParams(n_objects=2, budget_s=0.005,
                                                  seed=1))[1],
}
# sha256 of the sorted selection, repr(utility), gain_evaluations and the
# sorted meta of each partition baseline; any change to their schedules or
# counters must update these.
GOLDEN_BASELINE_DIGESTS = {
    'fair_infeasible': (
        'fa5e7085e64ef59f32013d9c6db9223fc8636a2e8b9ef1b3ac6f6ecf8415c48d',
        'd613b4f210cf3acd4e8e93c96479e115be47678e54ed538cdda71bc002338613',
        'f6b9d17368f771e54d6bd02963c2fad750a52880812a1e2f926d31669a22e25f',
    ),
    'identical_users': (
        '199a62e7f28e7f37a6d1984ab9009335ec774cd8cdabf9990d7a824255300e60',
        '77960d026eab9dda90e9011f1aa991e8f8cbca639fd1b4766b1dcdef55925cab',
        '10fce9300e1c25512f6498459fd7f6caeb391eb2b0f77c1ac0712834187f274a',
    ),
    'n32_5ms': (
        '48d121b6f29c2cb84610421b48f76f80af933987e94e8e29c635f04fbaf667d8',
        '85cff33e01d91e82408d68a9faa06d3fc8961ab179df7a03cdcbb6a412a52ef1',
        '820e1f8c7294bb0e07917954a2142f99807a83b1255c55a7d365d8e0377e2712',
    ),
    'n96_40x25': (
        'f2334671408b4ef6363ce7fdc91fe395cd7119cf99f94d6a1148c49366a27b71',
        'a339d200b54d817a7aa81d702b2356fa9d603cd6e18ceb58c5239d4d44b88ab9',
        '36a1f9076f31aa68fb8868f1cf001a8fd4f3e0dc55bb700219cf01e1899364b7',
    ),
    'no_objects': (
        '77d5721d800e2026efe3629c9995f35efc364bbbcf1f254dd7f0d630dff28f12',
        'da7beb00c6e80b92801c1ee417c80cefb5d195052fb4cf1f00db72f9cf85eca6',
        '6b1eab8109d276eaf7714e3bb9bfb4d653d70a12e3c969eaaeeb258c9b5eedf8',
    ),
    'one_user': (
        '6839fff67876c5e4bc65db4dd4632ab227a164c5406ff94f1c2e14d7a246535c',
        '6643ba98cd001069dcdfc96b2e9e8abacea9a7376c3848022cc3f79cd7c96d9f',
        '778855f9806d6c75ef457568a456da3cabc1eaa53c0f11fcc585d6d0424f89d6',
    ),
    'paper_default': (
        '0d7b4aa7f6086ee0a74d8355f748aba49c098c9e3295fa0d0c427c3f6db6391c',
        'bec1d1ed4af2128db38cf26ea05772e4fc762e0268a705b66790c9a94afdf4f5',
        '38e2916e05d0a5e73cfbca8b51325048bf01d11ba776a9f88aa92f0184e89c84',
    ),
    'sparse_interest': (
        'a46513b0d3dec07b9c16b38add5661a6c49119ec9e39bba603197f65a839b65d',
        '14735c512c6485e0cb77af442084c7b994ed8e8c882c5257cb395a3669c9413c',
        'cbd7b8f1b1f6a0e3faf9df51c9c70620f90bcfd8e82876c5e13b1e6e3f4342dc',
    ),
}


def baseline_digests(inst: ProblemInstance) -> tuple[str, str, str]:
    out = []
    for res in (kmeanspp_solve(inst), dp_solve(inst), dp_solve(inst, fair=True)):
        doc = repr((sorted(res.selection.items), repr(res.utility),
                    res.gain_evaluations, sorted(res.meta.items())))
        out.append(hashlib.sha256(doc.encode()).hexdigest())
    return tuple(out)


# the instances both golden sets share (paper_default, n96_40x25,
# no_objects, sparse_interest) are built the same way in each
GOLDEN_INSTANCES = {**GOLDEN_RATE_VECTOR_INSTANCES, **GOLDEN_BASELINE_INSTANCES}


@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_every_solver_returns_the_same_document_twice(name):
    # a SolveResult holds the schedule and its counters, and no clock
    inst = GOLDEN_INSTANCES[name]()
    for solver_id, solver in SOLVERS.items():
        assert solver(inst).to_json() == solver(inst).to_json(), solver_id


@pytest.mark.parametrize("name", sorted(GOLDEN_BASELINE_INSTANCES))
def test_partition_baselines_are_bit_stable(name):
    inst = GOLDEN_BASELINE_INSTANCES[name]()
    assert baseline_digests(inst) == GOLDEN_BASELINE_DIGESTS[name]


# sha256 of the sorted selection, the plan's groups, mask bytes and
# repr(rates), repr(utility), repr(latency), gain_evaluations and the sorted
# meta of broadcast and unicast; any change to their schedules or counters
# must update these.
GOLDEN_GROUP_DIGESTS = {
    'fair_infeasible': (
        '6f7010e97e85c37c73886b06f5021efc4f018a29c76251026fa386b180c6ca25',
        '4e4e3213c6227bffc712b1c0e1a69f45f2b08be082f0649178e81601a20ceef0',
    ),
    'identical_users': (
        '3172069e93b9eec2153fe9ea046279642f04fd6828b9106d4699a4969db11a56',
        '9760b6b1cd63bffb23fa2ed632aafc599a9a36c344a8d7bd07260be1a735c0e7',
    ),
    'n32_5ms': (
        '57e55ce9a9bf34ef1d24e56c947a9e14982c998ff37a683cde5824d136ae25d8',
        '9acdd92289a5689b48a142e7a67be59cdccdf0a75ee879d8ba18a3a15e5124d3',
    ),
    'n96_40x25': (
        '0ff4e8bec93c96311b8d0a57b50835995ed6a4fa860f56a294e73cdf0b90597c',
        'ead51abf52c2f7f161d85010f37638fffc05dafa559077563242b628fb9565f9',
    ),
    'no_objects': (
        '53ffd253a71a8c04221f26e0715f28e1c927e607d36b5d8364be79ec72fad07e',
        '14440f565185cc55fb53e21ada5895fba37947f38a6cbe28997b201abd92c74c',
    ),
    'one_user': (
        'a9b66c813131b048526259d362cdc142cb78a1fc78c2cf835cc8433d77fb2cbd',
        '1b21c2f5518b8ae16578361a664f84c4dee59db2a54482ff8f071ccac80f7c77',
    ),
    'paper_default': (
        '2a22ba01b102b8aed209b1a0f276a45cb603733be454433bd864c99c1dfbbeef',
        '86cbf0fbcc72f3cb1ff3ac58f7b7be5482f58bc902106be4ab9987ad5b14bb3e',
    ),
    'sparse_interest': (
        '5ce338298b7c88fc724db63d0fea1b1044072383e550db41eefcc1414998b5bf',
        'eb4f6601d56c2c5f6dd4bedab6c0291d0c9a79cf4dff4e13c3e4f05b49f0b85e',
    ),
}


def group_digests(inst: ProblemInstance) -> tuple[str, str]:
    out = []
    for res in (broadcast_solve(inst), unicast_solve(inst)):
        plan = res.plan
        doc = repr((sorted(res.selection.items), plan.groups,
                    plan.masks.tobytes(), repr(plan.rates_bps),
                    repr(res.utility), repr(res.latency_s),
                    res.gain_evaluations, sorted(res.meta.items())))
        out.append(hashlib.sha256(doc.encode()).hexdigest())
    return tuple(out)


@pytest.mark.parametrize("name", sorted(GOLDEN_BASELINE_INSTANCES))
def test_broadcast_and_unicast_are_bit_stable(name):
    inst = GOLDEN_BASELINE_INSTANCES[name]()
    assert group_digests(inst) == GOLDEN_GROUP_DIGESTS[name]


# sha256 of the plan's groups, mask bytes and repr(rates), and repr(latency)
# of each partition baseline, which GOLDEN_BASELINE_DIGESTS leaves out; any
# change to the plans they return must update these.
GOLDEN_PLAN_DIGESTS = {
    'fair_infeasible': (
        'fac907c7793024197c400f7cc49e1e0e13fc374ac0870c31bca35bc8d894be48',
        'bbcd31e9758b3b010839305122be9e0df53a41e3bc67e67427a467058518b921',
        'bbcd31e9758b3b010839305122be9e0df53a41e3bc67e67427a467058518b921',
    ),
    'identical_users': (
        'fe4ec53e705213e5ee72cf79a2c882c70d8aafb42a8f0b59a8a033861eac6639',
        'fe4ec53e705213e5ee72cf79a2c882c70d8aafb42a8f0b59a8a033861eac6639',
        'fe4ec53e705213e5ee72cf79a2c882c70d8aafb42a8f0b59a8a033861eac6639',
    ),
    'n32_5ms': (
        'de858112ca40c5b0a3061fd0e5aa94046feb34d5199d0e71ff54f60e4109ab42',
        '766b95e450b74bfcecac9f2328736274baf97ebc46ac20371ac399e621445e81',
        '766b95e450b74bfcecac9f2328736274baf97ebc46ac20371ac399e621445e81',
    ),
    'n96_40x25': (
        'eda839bcfcf888307b148c0d39be30005292a58786b2e72f8239a276d9977014',
        'f73c70bd299b922ab75349f6b0b5a79e81b47b36bb59214f2e845aea4a68e981',
        'f73c70bd299b922ab75349f6b0b5a79e81b47b36bb59214f2e845aea4a68e981',
    ),
    'no_objects': (
        '09bcdef39cb5abf1529ce873b5f902eac57a70fcbb5e35438cbb91968963eb1e',
        '09bcdef39cb5abf1529ce873b5f902eac57a70fcbb5e35438cbb91968963eb1e',
        '09bcdef39cb5abf1529ce873b5f902eac57a70fcbb5e35438cbb91968963eb1e',
    ),
    'one_user': (
        '4fad08ff570df808ba24531d6b500c68032c3d0f1437746c0e11c6b6a5304775',
        '4fad08ff570df808ba24531d6b500c68032c3d0f1437746c0e11c6b6a5304775',
        '4fad08ff570df808ba24531d6b500c68032c3d0f1437746c0e11c6b6a5304775',
    ),
    'paper_default': (
        '7d459bbd64ee53ec2825aea32033bdf46a3fcc46c8f78593c796502b226595d1',
        '7d459bbd64ee53ec2825aea32033bdf46a3fcc46c8f78593c796502b226595d1',
        '7d459bbd64ee53ec2825aea32033bdf46a3fcc46c8f78593c796502b226595d1',
    ),
    'sparse_interest': (
        '7314c065bd578a1df44c3987cac40fefdb3d93784823316d6fd63fd57ae8ef2a',
        '5eb2ca7be523e6a8f673f84b24f105b42ebcc71d4da40afbb37440e3b59c7160',
        '80f108e1d96984de4f89506d7c8633f3f4f4904da4c998afc5919b7744f3725b',
    ),
}


def plan_digests(inst: ProblemInstance) -> tuple[str, str, str]:
    out = []
    for res in (kmeanspp_solve(inst), dp_solve(inst), dp_solve(inst, fair=True)):
        plan = res.plan
        doc = repr((plan.groups, plan.masks.tobytes(), repr(plan.rates_bps),
                    repr(res.latency_s)))
        out.append(hashlib.sha256(doc.encode()).hexdigest())
    return tuple(out)


@pytest.mark.parametrize("name", sorted(GOLDEN_BASELINE_INSTANCES))
def test_partition_baseline_plans_are_bit_stable(name):
    inst = GOLDEN_BASELINE_INSTANCES[name]()
    assert plan_digests(inst) == GOLDEN_PLAN_DIGESTS[name]


def test_dp_memory_stays_linear_in_users():
    # one (n - i) x A pass per start user (A <= L wanted grids), never an
    # array per segment
    inst = random_full_scale_instance(np.random.default_rng(0), 64, 2000)
    tracemalloc.start()
    try:
        dp_solve(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6
