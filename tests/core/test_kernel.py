"""Kernel-vs-scalar equivalence: the vectorized route kernel must be
indistinguishable from the scalar tracer on every output — per-path
switch sequences, ports and turns, verification verdicts and counts,
LCA-usage histograms, all-to-one link loads, and CDG edge sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import verification as v
from repro.core.extensions import DestStaggeredMlidScheme, HashedMlidScheme
from repro.core.forwarding import MlidScheme
from repro.core import kernel as kernel_mod
from repro.core.kernel import RouteKernel, compile_kernel, trace_columns
from repro.core.scheme import RoutingScheme
from repro.core.slid import SlidScheme
from repro.core.updown import UpDownScheme
from repro.topology.fattree import FatTree

MN = [(4, 2), (8, 2), (4, 3)]
SCHEMES = [MlidScheme, SlidScheme]


def _schemes(m, n):
    ft = FatTree(m, n)
    return [cls(ft) for cls in SCHEMES]


@pytest.mark.parametrize("m,n", MN)
@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
def test_per_path_equivalence(m, n, cls):
    """Every (src, dst, DLID) route: identical switches, ports, turn."""
    ft = FatTree(m, n)
    scheme = cls(ft)
    kernel = compile_kernel(scheme)
    for src in ft.nodes:
        for dst in ft.nodes:
            if src == dst:
                continue
            for lid in scheme.lid_set(dst):
                scalar = v.trace_path(scheme, src, dst, dlid=lid)
                fast = kernel.path(src, dst, lid)
                assert fast == scalar
                assert fast.turn == scalar.turn
                assert fast.links == scalar.links


@pytest.mark.parametrize("m,n", MN)
@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
def test_selected_path_default_dlid(m, n, cls):
    scheme = cls(FatTree(m, n))
    kernel = compile_kernel(scheme)
    src, dst = scheme.ft.nodes[0], scheme.ft.nodes[-1]
    assert kernel.path(src, dst) == v.trace_path(scheme, src, dst)


@pytest.mark.parametrize("m,n", MN)
def test_verify_counts_match_scalar(m, n):
    for scheme in _schemes(m, n):
        for offsets in (True, False):
            fast = v.verify_scheme(scheme, check_offsets=offsets)
            slow = v.verify_scheme(
                scheme, check_offsets=offsets, use_kernel=False
            )
            assert fast == slow


@pytest.mark.parametrize("m,n", MN)
def test_verify_pairs_subset(m, n):
    for scheme in _schemes(m, n):
        nodes = scheme.ft.nodes
        pairs = [(nodes[0], nodes[-1]), (nodes[1], nodes[2])]
        fast = v.verify_scheme(scheme, pairs=pairs)
        slow = v.verify_scheme(scheme, pairs=pairs, use_kernel=False)
        assert fast == slow == 2 * scheme.lids_per_node


@pytest.mark.parametrize("m,n", MN)
def test_lca_usage_equivalence(m, n):
    for scheme in _schemes(m, n):
        for dst in (scheme.ft.nodes[0], scheme.ft.nodes[-1]):
            assert v.lca_usage(scheme, dst) == v.lca_usage(
                scheme, dst, use_kernel=False
            )


@pytest.mark.parametrize("m,n", MN)
def test_link_loads_equivalence(m, n):
    for scheme in _schemes(m, n):
        for dst in (scheme.ft.nodes[0], scheme.ft.nodes[-1]):
            assert v.link_loads_all_to_one(
                scheme, dst
            ) == v.link_loads_all_to_one(scheme, dst, use_kernel=False)


@pytest.mark.parametrize("m,n", MN)
def test_cdg_edge_set_equivalence(m, n):
    for scheme in _schemes(m, n):
        fast = v.channel_dependency_graph(scheme)
        slow = v.channel_dependency_graph(scheme, use_kernel=False)
        assert set(fast.edges) == set(slow.edges)
        assert set(fast.nodes) == set(slow.nodes)


def test_cdg_equivalence_updown_scheme():
    """Non-minimal up*/down* detours exercise the long-route tail."""
    scheme = UpDownScheme(FatTree(4, 2))
    fast = v.channel_dependency_graph(scheme)
    slow = v.channel_dependency_graph(scheme, use_kernel=False)
    assert set(fast.edges) == set(slow.edges)


def test_degenerate_single_switch_tree():
    """FT(4, 1): one leaf switch, every route is one hop."""
    scheme = MlidScheme(FatTree(4, 1))
    kernel = compile_kernel(scheme)
    assert kernel.verify() == v.verify_scheme(scheme, use_kernel=False)
    src, dst = scheme.ft.nodes[0], scheme.ft.nodes[1]
    assert kernel.path(src, dst) == v.trace_path(scheme, src, dst)


def test_extension_selection_policies_verify_and_agree():
    """mlid-hash / mlid-stagger: the dense DLID matrix now matches the
    scalar ``dlid`` (regression: the inherited vectorized matrix used
    to silently drop the hash/stagger term)."""
    ft = FatTree(4, 2)
    for cls in (HashedMlidScheme, DestStaggeredMlidScheme):
        scheme = cls(ft)
        matrix = scheme.dlid_matrix()
        for s, src in enumerate(ft.nodes):
            for d, dst in enumerate(ft.nodes):
                if s != d:
                    assert matrix[s, d] == scheme.dlid(src, dst)
        assert compile_kernel(scheme).verify(
            check_offsets=False
        ) == v.verify_scheme(scheme, check_offsets=False, use_kernel=False)


class _Misdelivering(MlidScheme):
    """Leaf entry corrupted: one DLID exits the wrong node port."""

    def output_port(self, switch, lid):
        k = super().output_port(switch, lid)
        if switch == ((0,), 1) and lid == 1:
            return (k + 1) % self.ft.half
        return k


class _Looping(MlidScheme):
    """One DLID always ascends at level 1: never delivered."""

    def output_port(self, switch, lid):
        k = super().output_port(switch, lid)
        if switch[1] == 1 and lid == 3:
            return self.ft.m - 1
        return k


class _BadPort(MlidScheme):
    """Forwarding entry outside the physical port range."""

    def output_port(self, switch, lid):
        k = super().output_port(switch, lid)
        if switch[1] == 0 and lid == 7:
            return 99
        return k


@pytest.mark.parametrize("cls", [_Misdelivering, _Looping, _BadPort])
def test_kernel_raises_scalar_identical_errors(cls):
    """output_port overridden under the vectorized build_tables: the
    kernel must still see the corruption (MRO guard) and must raise the
    exact message the scalar oracle raises."""
    ft = FatTree(4, 2)
    with pytest.raises(v.RoutingError) as kernel_err:
        v.verify_scheme(cls(ft))
    with pytest.raises(v.RoutingError) as scalar_err:
        v.verify_scheme(cls(ft), use_kernel=False)
    assert str(kernel_err.value) == str(scalar_err.value)


def test_aggregate_queries_raise_on_broken_routes():
    ft = FatTree(4, 2)
    scheme = _Looping(ft)
    kernel = compile_kernel(scheme)
    with pytest.raises(v.RoutingError):
        kernel.cdg_edges()
    dst = scheme.owner(3)
    with pytest.raises(v.RoutingError):
        kernel.lca_usage(dst)
    with pytest.raises(v.RoutingError):
        kernel.link_loads_all_to_one(dst)


@pytest.mark.parametrize("m,n", MN)
@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
def test_accumulate_link_loads_matches_all_to_one(m, n, cls):
    """One-hot weights on the selected routes to one destination are
    bit-identical to link_loads_all_to_one (integer accumulation is
    exact in float64)."""
    ft = FatTree(m, n)
    scheme = cls(ft)
    kernel = compile_kernel(scheme)
    dst = ft.nodes[0]
    d = ft.node_id(dst)
    weights = np.zeros((kernel.num_leaves, kernel.num_lids))
    for s in range(kernel.num_nodes):
        if s == d:
            continue
        lid = int(kernel.selected[s, d])
        weights[kernel.attach_leaf[s], lid - 1] += 1.0
    loads = kernel.accumulate_link_loads(weights)
    expected = kernel.link_loads_all_to_one(dst)
    got = {
        (ft.switches[i], k): loads[i, k]
        for i in range(kernel.num_switches)
        for k in range(kernel.m)
        if loads[i, k]
    }
    assert got == dict(expected)


def test_accumulate_link_loads_counts_every_hop():
    """Unit weight on every route: each route contributes exactly
    route_len channel loads (inter-switch hops + the ejection hop)."""
    kernel = compile_kernel(MlidScheme(FatTree(4, 2)))
    ones = np.ones((kernel.num_leaves, kernel.num_lids))
    loads = kernel.accumulate_link_loads(ones)
    assert loads.shape == (kernel.num_switches, kernel.m)
    assert loads.sum() == kernel.route_len.sum()


def test_accumulate_link_loads_shape_validated():
    kernel = compile_kernel(MlidScheme(FatTree(4, 2)))
    with pytest.raises(ValueError, match="weights must be"):
        kernel.accumulate_link_loads(np.ones((3, 3)))


def test_from_lfts_matches_from_scheme():
    """Compiling from programmed LFTs (1-based physical ports) equals
    compiling from the scheme's 0-based tables."""
    from repro.ib.sm import SubnetManager

    scheme = MlidScheme(FatTree(4, 2))
    lfts = SubnetManager(scheme).configure()
    a = RouteKernel.from_scheme(scheme)
    b = RouteKernel.from_lfts(scheme, lfts)
    assert np.array_equal(a.port, b.port)
    assert np.array_equal(a.route_switch, b.route_switch)
    assert np.array_equal(a.delivered, b.delivered)


def test_compile_kernel_memoizes_per_scheme_instance():
    scheme = MlidScheme(FatTree(4, 2))
    assert compile_kernel(scheme) is compile_kernel(scheme)
    other = MlidScheme(FatTree(4, 2))
    assert compile_kernel(other) is not compile_kernel(scheme)


def test_port_matrix_shape_validated():
    scheme = MlidScheme(FatTree(4, 2))
    with pytest.raises(ValueError, match="port matrix"):
        RouteKernel(scheme, np.zeros((2, 2), dtype=np.int64))


def test_generic_scheme_without_vectorized_tables():
    """A scheme relying on the generic per-entry build_tables loop
    compiles and verifies through the kernel too."""

    class PlainMlid(RoutingScheme):
        name = "plain"
        _inner = None

        def __init__(self, ft):
            super().__init__(ft)
            self._inner = MlidScheme(ft)

        @property
        def lmc(self):
            return self._inner.lmc

        def base_lid(self, node):
            return self._inner.base_lid(node)

        def dlid(self, src, dst):
            return self._inner.dlid(src, dst)

        def output_port(self, switch, lid):
            return self._inner.output_port(switch, lid)

    scheme = PlainMlid(FatTree(4, 2))
    assert compile_kernel(scheme).verify() == v.verify_scheme(
        scheme, use_kernel=False
    )


# ----------------------------------------------------------------------
# Column tracing and the incremental compile
# ----------------------------------------------------------------------

_ROUTE_ARRAYS = ("route_switch", "route_port", "route_len", "delivered", "bad_port")


def _assert_same_routes(a, b):
    for name in _ROUTE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.flags.c_contiguous, name
        assert np.array_equal(x, y), name


@pytest.mark.parametrize("m,n", MN)
def test_column_trace_is_a_slice_of_the_full_trace(m, n):
    kernel = compile_kernel(MlidScheme(FatTree(m, n)))
    cols = np.arange(kernel.num_lids)[1::3]
    part = trace_columns(kernel.arrays, kernel.port, cols, kernel.max_steps)
    assert np.array_equal(part.switch, kernel.route_switch[:, cols])
    assert np.array_equal(part.port, kernel.route_port[:, cols])
    assert np.array_equal(part.length, kernel.route_len[:, cols])
    assert np.array_equal(part.delivered, kernel.delivered[:, cols])
    assert np.array_equal(part.bad_port, kernel.bad_port[:, cols])


@pytest.mark.parametrize(
    "m,n,scheme", [(4, 2, "slid"), (4, 3, "mlid"), (8, 2, "mlid-hash")]
)
def test_incremental_compile_matches_full_every_generation(m, n, scheme):
    from repro.service import LinkFlapStorm

    storm = LinkFlapStorm(
        m, n, scheme, flap_links=2, horizon_ns=40_000.0, keep_lfts=True
    )
    storm.net.engine.run()
    archive = storm.publisher.lft_archive
    assert len(archive) > 2
    prev = None
    for generation in sorted(archive):
        lfts = archive[generation]
        full = RouteKernel.from_lfts(storm.mgr.scheme, lfts)
        fast = RouteKernel.from_lfts(storm.mgr.scheme, lfts, base=prev)
        _assert_same_routes(fast, full)
        prev = fast
    # The publisher compiles the same way, from the store's snapshot.
    _assert_same_routes(storm.store.get().kernel, full)


_PERTURBED = [MlidScheme(FatTree(4, 3)), SlidScheme(FatTree(8, 2))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_incremental_compile_under_column_perturbations(data):
    """Random entries, out-of-range ports included: an incremental
    compile equals a full one and leaves its base untouched."""
    scheme = data.draw(st.sampled_from(_PERTURBED))
    base = compile_kernel(scheme)
    S, L, m = base.num_switches, base.num_lids, base.m
    entry = st.tuples(
        st.integers(0, S - 1), st.integers(0, L - 1), st.integers(-2, m + 1)
    )
    for _ in range(2):  # chained: the second compile builds on the first
        port = base.port.copy()
        for s, lix, p in data.draw(st.lists(entry, max_size=16)):
            port[s, lix] = p
        kept = {name: getattr(base, name).copy() for name in _ROUTE_ARRAYS}
        fast = RouteKernel(scheme, port, base=base)
        _assert_same_routes(fast, RouteKernel(scheme, port))
        for name in _ROUTE_ARRAYS:
            assert np.array_equal(getattr(base, name), kept[name]), name
            assert not np.shares_memory(getattr(base, name), getattr(fast, name))
        assert fast._checks is None and fast._sel is None
        base = fast


def _traced_columns(monkeypatch):
    calls = []
    real = kernel_mod.trace_columns

    def spy(arrays, port, columns, budget):
        calls.append(columns)
        return real(arrays, port, columns, budget)

    monkeypatch.setattr(kernel_mod, "trace_columns", spy)
    return calls


def test_incremental_compile_traces_only_changed_columns(monkeypatch):
    scheme = MlidScheme(FatTree(4, 3))
    base = RouteKernel.from_scheme(scheme)
    port = base.port.copy()
    port[3, 5] = (port[3, 5] + 1) % base.m
    port[7, 40] = (port[7, 40] + 1) % base.m
    calls = _traced_columns(monkeypatch)
    RouteKernel(scheme, port, base=base)
    assert len(calls) == 1 and list(calls[0]) == [5, 40]
    calls.clear()
    RouteKernel(scheme, base.port, base=base)  # nothing changed
    assert calls == []


def test_incompatible_base_falls_back_to_full_compile(monkeypatch):
    ft = FatTree(4, 3)
    scheme = MlidScheme(ft)
    port = RouteKernel.from_scheme(scheme).port
    bases = [
        RouteKernel.from_scheme(SlidScheme(ft)),  # other scheme and shape
        RouteKernel.from_scheme(HashedMlidScheme(ft)),  # same shape
        RouteKernel.from_scheme(MlidScheme(FatTree(8, 2))),  # other fabric
    ]
    calls = _traced_columns(monkeypatch)
    for base in bases:
        calls.clear()
        kernel = RouteKernel(scheme, port, base=base)
        assert calls == [None]
        _assert_same_routes(kernel, RouteKernel.from_scheme(scheme))
