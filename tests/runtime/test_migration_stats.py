"""Differential tests: the vectorized migration statistics against the
scalar table-walk oracle.

``DynamicSubnetManager._migration_stats`` traces only the changed DLID
columns with :func:`repro.core.kernel.trace_columns`.  The oracle below
is the original per-(src, dst) Python walk; every ``ReroutingRecord``
(flows rerouted, path inflation — float bits included) must come out
``==`` either way.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.fault import DisconnectedError
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet
from repro.runtime import DynamicSubnetManager, FaultSchedule
from repro.service import LinkFlapStorm
from repro.topology.labels import format_switch

# ----------------------------------------------------------------------
# The scalar oracle
# ----------------------------------------------------------------------


def _walk(mgr, tables, src_pid: int, dlid: int, max_hops: int):
    """(switch, port) sequence of one table walk, None on non-delivery."""
    ft = mgr.ft
    sw = ft.node_attachment(ft.node_from_pid(src_pid)).switch
    path: List[Tuple[object, int]] = []
    for _ in range(max_hops):
        port = int(tables[sw][dlid - 1])
        path.append((sw, port))
        ep = ft.peer(sw, port)
        if ep.is_node:
            return path
        sw = ep.switch
    return None


def oracle_migration_stats(mgr, before, known) -> Tuple[int, float]:
    changed = np.zeros(mgr.scheme.num_lids, dtype=bool)
    for sw, old in before.items():
        live = mgr._live[sw]
        if live is not old:
            np.logical_or(changed, old != live, out=changed)
    if not changed.any():
        return 0, 1.0
    max_hops = 2 * mgr.ft.n + 2 * max(1, len(known)) + 2
    num = mgr.ft.num_nodes
    flows = 0
    ratios: List[float] = []
    for src in range(num):
        for dst in range(num):
            if src == dst:
                continue
            dlid = mgr.net.dlid_for(src, dst)
            if not changed[dlid - 1]:
                continue
            old = _walk(mgr, before, src, dlid, max_hops)
            new = _walk(mgr, mgr._live, src, dlid, max_hops)
            if old == new:
                continue
            flows += 1
            if new is not None:
                base = _walk(mgr, mgr._baseline, src, dlid, max_hops)
                ratios.append(len(new) / len(base))
    inflation = sum(ratios) / len(ratios) if ratios else 1.0
    return flows, inflation


@pytest.fixture
def scalar_stats(monkeypatch):
    """Calling it swaps the oracle in for the rest of the test."""

    def install():
        monkeypatch.setattr(
            DynamicSubnetManager, "_migration_stats", oracle_migration_stats
        )

    return install


# ----------------------------------------------------------------------
# Whole runs: every record equal
# ----------------------------------------------------------------------


#: Flapping links per fabric: as many as stay connected when the
#: staggered outages overlap.
_FLAPS = {(4, 2): 2, (4, 3): 3, (8, 2): 4}


def _storm_records(m, n, scheme):
    storm = LinkFlapStorm(
        m, n, scheme, flap_links=_FLAPS[m, n], horizon_ns=60_000.0
    )
    storm.net.engine.run()
    return storm.mgr.records


@pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (8, 2)])
@pytest.mark.parametrize("scheme", ["slid", "mlid", "mlid-hash"])
def test_flap_storm_records_match_oracle(m, n, scheme, scalar_stats):
    fast = _storm_records(m, n, scheme)
    scalar_stats()
    slow = _storm_records(m, n, scheme)
    assert fast == slow
    assert any(r.flows_rerouted for r in fast)


def _run_schedule(links, recover, use_kernel=True):
    """FT(4,3) mlid with ``links`` failing at staggered times; the
    ``recover`` ones come back later.  None if the set disconnects."""
    net = build_subnet(
        4, 3, "mlid", SimConfig(detection_latency_ns=100.0), seed=1
    )
    sched = FaultSchedule(net.ft)
    for i, (sw, port) in enumerate(links):
        t = 1_000.0 + 150.0 * i
        if i in recover:
            sched.fail_and_recover(sw, port, t, t + 3_000.0)
        else:
            sched.link_down(t, sw, port)
    mgr = DynamicSubnetManager(net, sched, use_kernel=use_kernel)
    mgr.arm()
    try:
        net.engine.run()
    except DisconnectedError:
        return None
    return mgr.records


def _switch_links(ft):
    """Every switch-to-switch link once, as (upper switch, down port)."""
    return [
        (sw, port)
        for sw in ft.switches
        for port in ft.down_ports(sw)
        if ft.peer(sw, port).is_switch
    ]


_FT43_LINKS = _switch_links(build_subnet(4, 3, "mlid", seed=1).ft)


def test_scalar_repair_backend_records_match_oracle(scalar_stats):
    links = [_FT43_LINKS[i] for i in (0, 5, 9, 14)]
    fast = _run_schedule(links, {1, 3}, use_kernel=False)
    scalar_stats()
    slow = _run_schedule(links, {1, 3}, use_kernel=False)
    assert fast == slow
    assert any(r.flows_rerouted for r in fast)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(
        st.integers(0, len(_FT43_LINKS) - 1), min_size=1, max_size=5, unique=True
    ),
    recover=st.sets(st.integers(0, 4)),
)
def test_fault_set_records_match_oracle(picks, recover, monkeypatch):
    links = [_FT43_LINKS[i] for i in picks]
    fast = _run_schedule(links, recover)
    assume(fast is not None)
    with monkeypatch.context() as patch:
        patch.setattr(
            DynamicSubnetManager, "_migration_stats", oracle_migration_stats
        )
        slow = _run_schedule(links, recover)
    assert fast == slow


# ----------------------------------------------------------------------
# Crafted tables: detours, loops, truncation
# ----------------------------------------------------------------------


def _manager(m=4, n=3, scheme="mlid"):
    return DynamicSubnetManager(build_subnet(m, n, scheme, seed=1))


def _tables(mgr):
    return {sw: row.copy() for sw, row in mgr._baseline.items()}


def _both(mgr, before, live, known):
    mgr._live = live
    return mgr._migration_stats(before, known), oracle_migration_stats(
        mgr, before, known
    )


def _port_to(ft, a, b) -> int:
    return next(
        k for k, ep in enumerate(ft.ports(a)) if ep.is_switch and ep.switch == b
    )


def _simple_path(ft, start, goal, length) -> Optional[list]:
    """A switch path start..goal visiting ``length`` distinct switches."""

    def extend(path):
        if len(path) == length:
            return path if path[-1] == goal else None
        for ep in ft.ports(path[-1]):
            nxt = ep.switch if ep.is_switch else None
            if nxt is None or nxt in path:
                continue
            if nxt == goal and len(path) < length - 1:
                continue
            found = extend(path + [nxt])
            if found:
                return found
        return None

    return extend([start])


def _detour(mgr, switches: int):
    """Live tables where one selected (src, dst) route visits
    ``switches`` distinct switches before reaching its destination."""
    ft = mgr.ft
    src, dst = 0, ft.num_nodes - 1
    dlid = mgr.net.dlid_for(src, dst)
    start = ft.node_attachment(ft.node_from_pid(src)).switch
    goal = ft.node_attachment(ft.node_from_pid(dst)).switch
    path = _simple_path(ft, start, goal, switches)
    live = _tables(mgr)
    for a, b in zip(path, path[1:]):
        live[a] = live[a].copy()
        live[a][dlid - 1] = _port_to(ft, a, b)
    return live, src, dlid


@pytest.mark.parametrize("switches,faults", [(9, 1), (9, 0), (11, 0), (11, 3)])
def test_detour_longer_than_fault_free_budget(switches, faults):
    mgr = _manager()
    before = _tables(mgr)
    live, src, dlid = _detour(mgr, switches)
    known = frozenset(range(faults))
    fast, slow = _both(mgr, before, live, known)
    assert fast == slow
    budget = 2 * mgr.ft.n + 2 * max(1, faults) + 2
    walk = _walk(mgr, live, src, dlid, budget)
    assert switches > 2 * mgr.ft.n + 2
    # Delivered when the budget allows it, undelivered otherwise.
    assert (walk is not None) == (switches <= budget)
    assert fast[0] > 0


def _ping_pong(mgr, tables, leaf, dlid, up_port):
    """Make ``dlid`` bounce between ``leaf`` and its parent forever."""
    ft = mgr.ft
    ep = ft.peer(leaf, up_port)
    tables[leaf] = tables[leaf].copy()
    tables[leaf][dlid - 1] = up_port
    tables[ep.switch] = tables[ep.switch].copy()
    tables[ep.switch][dlid - 1] = ep.port


def test_pair_undelivered_before_and_after():
    mgr = _manager()
    ft = mgr.ft
    src, dst = 0, ft.num_nodes - 1
    dlid = mgr.net.dlid_for(src, dst)
    leaf = ft.node_attachment(ft.node_from_pid(src)).switch
    before, live = _tables(mgr), _tables(mgr)
    _ping_pong(mgr, before, leaf, dlid, ft.half)
    _ping_pong(mgr, live, leaf, dlid, ft.half + 1)
    assert _walk(mgr, before, src, dlid, 12) is None
    assert _walk(mgr, live, src, dlid, 12) is None
    fast, slow = _both(mgr, before, live, frozenset())
    assert fast == slow


def test_unchanged_tables_report_nothing():
    mgr = _manager()
    before = dict(mgr._live)
    assert mgr._migration_stats(before, frozenset({1})) == (0, 1.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_perturbed_tables_match_oracle(data):
    """Random in-range entries: loops, detours, misdeliveries."""
    m, n, scheme = data.draw(
        st.sampled_from([(4, 3, "mlid"), (4, 2, "slid"), (8, 2, "mlid-hash")])
    )
    mgr = _manager(m, n, scheme)
    num_switches, num_lids = mgr.ft.num_switches, mgr.scheme.num_lids
    entry = st.tuples(
        st.integers(0, num_switches - 1),
        st.integers(0, num_lids - 1),
        st.integers(0, m - 1),
    )
    tables = []
    for _ in range(2):
        t = _tables(mgr)
        for s, lix, port in data.draw(st.lists(entry, max_size=12)):
            t[mgr.ft.switches[s]][lix] = port
        tables.append(t)
    known = frozenset(range(data.draw(st.integers(0, 3))))
    fast, slow = _both(mgr, tables[0], tables[1], known)
    assert fast == slow


# ----------------------------------------------------------------------
# Corrupt entries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("port", [4, -1])
def test_out_of_range_entry_names_switch_dlid_and_port(port):
    mgr = _manager(4, 2)
    ft = mgr.ft
    src, dst = 0, ft.num_nodes - 1
    dlid = mgr.net.dlid_for(src, dst)
    leaf = ft.node_attachment(ft.node_from_pid(src)).switch
    live = _tables(mgr)
    # Climb one hop as the baseline does, then hit the corrupt entry.
    up = int(live[leaf][dlid - 1])
    parent = ft.peer(leaf, up).switch
    live[parent][dlid - 1] = port
    mgr._live = live
    label = format_switch(*parent)
    with pytest.raises(ValueError) as err:
        mgr._migration_stats(_tables(mgr), frozenset())
    msg = str(err.value)
    assert f"DLID {dlid}" in msg
    assert f"port {port}" in msg
    assert label in msg


@pytest.mark.parametrize(
    "port,match", [(7, "port 7, outside"), (None, "reaches no node")]
)
def test_corrupt_baseline_route_of_a_moved_flow_raises(port, match):
    mgr = _manager(4, 2)
    ft = mgr.ft
    src, dst = 0, ft.num_nodes - 1
    dlid = mgr.net.dlid_for(src, dst)
    leaf = ft.node_attachment(ft.node_from_pid(src)).switch
    before, live, baseline = _tables(mgr), _tables(mgr), _tables(mgr)
    # The flow moves to its leaf's other up-link and stays delivered.
    up = int(live[leaf][dlid - 1])
    live[leaf][dlid - 1] = ft.half + (up - ft.half + 1) % ft.half
    mgr._live = live
    if port is None:
        _ping_pong(mgr, baseline, leaf, dlid, ft.half)
    else:
        baseline[leaf][dlid - 1] = port
    mgr._baseline = baseline
    with pytest.raises(ValueError, match=match):
        mgr._migration_stats(before, frozenset())
