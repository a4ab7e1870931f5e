import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

import hardgraph
from hardgraph.graph_ir import ArchGraph, Concat, Conv, Input, TensorShape
from hardgraph.harmonic import HDBSpec, build_bare_hdb, build_hdb
from hardgraph.liveness import peak_memory, tensor_lifetimes, timeline_csv, verify_flush
from hardgraph.registry import MODEL_NAMES


def brute_force_deaths(graph):
    """Independent last-consumer scan over raw node inputs, in node order."""
    nodes = graph.nodes
    deaths = {}
    for node in nodes:
        users = [n.id for n in nodes if node.id in n.inputs]
        deaths[node.id] = max(users) if users else len(nodes) - 1
    return deaths


def brute_force_concat_free_deaths(graph):
    """Deaths when each concat is a view: a concat's inputs live as long as
    the concat, repeated until nothing changes, so chained concats pass it on."""
    deaths = brute_force_deaths(graph)
    changed = True
    while changed:
        changed = False
        for node in graph.nodes:
            for i in node.inputs if isinstance(node.kind, Concat) else ():
                if deaths[i] < deaths[node.id]:
                    deaths[i], changed = deaths[node.id], True
    return deaths


def _scan_peak_memory(graph, dtype_bytes=4, concat_free=False):
    """Reference (steps, peak_bytes, peak_step): sums every live interval at
    every step, O(steps x nodes)."""
    intervals = tensor_lifetimes(graph, concat_free=concat_free)
    steps, peak_bytes, peak_step = [], 0, 0
    for step in range(len(graph.nodes)):
        live = [iv for iv in intervals if iv.birth <= step <= iv.death]
        total = sum(iv.size_elements for iv in live) * dtype_bytes
        steps.append(total)
        if total > peak_bytes:
            peak_bytes, peak_step = total, step
    return steps, peak_bytes, peak_step


def assert_matches_scan(graph, **kwargs):
    got = peak_memory(graph, **kwargs)
    assert (got.steps, got.peak_bytes, got.peak_step) == _scan_peak_memory(graph, **kwargs)


@st.composite
def random_dags(draw):
    """Graphs where each node reads 1-3 distinct earlier nodes through a conv or a concat."""
    g = ArchGraph()
    g.add(Input(), [])
    for nid in range(1, draw(st.integers(1, 40)) + 1):
        k = draw(st.integers(1, min(3, nid)))
        inputs = draw(st.lists(st.integers(0, nid - 1), min_size=k, max_size=k, unique=True))
        if k > 1 and draw(st.booleans()):
            g.add(Concat(), inputs)
        else:
            g.add(Conv(draw(st.integers(1, 64)), kernel_h=1, kernel_w=1), inputs)
    g.infer_shapes(TensorShape(draw(st.integers(1, 16)), draw(st.integers(1, 8)),
                               draw(st.integers(1, 8))))
    return g


def chain():
    g = ArchGraph()
    i = g.add(Input(), [])
    a = g.add(Conv(16), [i])
    b = g.add(Conv(8), [a])
    g.infer_shapes(TensorShape(3, 32, 32))
    return g, (i, a, b)


class TestLifetimes:
    def test_chain_deaths(self):
        g, (i, a, b) = chain()
        ivs = {iv.tensor_id: iv for iv in tensor_lifetimes(g)}
        assert ivs[i].death == 1
        assert ivs[a].death == 2
        assert ivs[b].death == 2  # output lives to the end

    def test_matches_brute_force_on_models(self):
        for name in ("hardnet39ds", "fc-hardnet68"):
            g = hardgraph.build(name)
            expected = brute_force_deaths(g)
            for iv in tensor_lifetimes(g):
                assert iv.death == expected[iv.tensor_id]

    @settings(max_examples=100, deadline=None)
    @given(random_dags(), st.booleans())
    def test_matches_brute_force_on_random_dags(self, g, concat_free):
        expected = brute_force_deaths(g)
        ivs = tensor_lifetimes(g, concat_free=concat_free)
        assert [iv.tensor_id for iv in ivs] == [n.id for n in g.nodes]
        for iv in ivs:
            assert iv.birth == iv.tensor_id
            if concat_free:
                assert iv.death >= expected[iv.tensor_id]
            else:
                assert iv.death == expected[iv.tensor_id]

    @settings(max_examples=100, deadline=None)
    @given(random_dags())
    def test_concat_free_deaths_match_brute_force(self, g):
        # a loaded graph groups its nodes into classes; a built one does not
        expected = brute_force_concat_free_deaths(g)
        for graph in (g, ArchGraph.from_json(g.to_json())):
            ivs = tensor_lifetimes(graph, concat_free=True)
            assert [iv.death for iv in ivs] == [expected[nid] for nid in range(len(ivs))]
            assert [iv.size_elements == 0 for iv in ivs] == \
                [isinstance(k, Concat) for k in graph.kinds]

    def test_chained_concats_extend_the_first_inputs(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        a, b = g.add(Conv(4), [i]), g.add(Conv(4), [i])
        inner = g.add(Concat(), [a, b])
        outer = g.add(Concat(), [inner, i])
        last = g.add(Conv(4), [outer])
        g.add(Conv(4), [last])
        g.infer_shapes(TensorShape(3, 8, 8))
        deaths = [iv.death for iv in tensor_lifetimes(g, concat_free=True)]
        assert deaths[a] == deaths[b] == deaths[inner] == deaths[outer] == last

    def test_bare_hdb_even_layer_dies_at_next_power(self):
        g, res = build_bare_hdb(HDBSpec(8, 10, 1.6), TensorShape(16, 32, 32))
        ivs = tensor_lifetimes(g)
        # layer 3 is consumed only by layer 4 (through its concat)
        assert ivs[res.layer_nodes[3]].death < res.layer_nodes[4]

    def test_output_concat_extends_odd_lifetimes(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        g.infer_shapes(TensorShape(16, 32, 32))
        res = build_hdb(HDBSpec(8, 10, 1.6), i, g)
        g.infer_shapes(TensorShape(16, 32, 32))
        ivs = tensor_lifetimes(g)
        for l in (1, 3, 5, 7):
            assert ivs[res.layer_nodes[l]].death >= res.output
        for l in (2, 4, 6):
            assert ivs[res.layer_nodes[l]].death < res.output


class TestPeakMemory:
    def test_chain_hand_trace(self):
        g, _ = chain()
        prof = peak_memory(g, dtype_bytes=1)
        assert prof.steps == [3072, 3072 + 16384, 16384 + 8192]
        assert prof.peak_bytes == 24_576
        assert prof.peak_step == 2

    def test_input_only(self):
        g = ArchGraph()
        g.add(Input(), [])
        g.infer_shapes(TensorShape(3, 32, 32))
        prof = peak_memory(g, dtype_bytes=1)
        assert prof.peak_bytes == 3072

    def test_dtype_linearity(self):
        g, _ = chain()
        p1 = peak_memory(g, dtype_bytes=1)
        p4 = peak_memory(g, dtype_bytes=4)
        assert p4.peak_bytes == 4 * p1.peak_bytes
        assert p4.steps == [4 * s for s in p1.steps]

    def test_monotone_in_spatial_size(self):
        small = peak_memory(hardgraph.build("hardnet39ds", TensorShape(3, 224, 224)))
        big = peak_memory(hardgraph.build("hardnet39ds", TensorShape(3, 448, 448)))
        assert big.peak_bytes >= small.peak_bytes

    @pytest.mark.parametrize("name", ["hardnet39ds", "fc-hardnet68", "densenet121"])
    def test_concat_free_never_higher(self, name):
        g = hardgraph.build(name)
        materialized = peak_memory(g)
        free = peak_memory(g, concat_free=True)
        assert free.peak_bytes <= materialized.peak_bytes
        assert all(f <= m for f, m in zip(free.steps, materialized.steps))

    def test_schedule_is_not_an_argument(self):
        # an old positional schedule would land in concat_free or header
        g, _ = chain()
        prof = peak_memory(g)
        with pytest.raises(TypeError):
            peak_memory(g, g.schedule())
        with pytest.raises(TypeError):
            tensor_lifetimes(g, g.schedule())
        with pytest.raises(TypeError):
            timeline_csv(g, prof, g.schedule())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.none() | st.text(st.sampled_from(list(',"\r\n x\u00e9\u4e2d'))
                                        | st.characters(blacklist_characters="\0")),
                    min_size=1, max_size=8),
           st.none() | st.dictionaries(st.sampled_from(["model", "peak_bytes", "a b"]),
                                       st.integers() | st.text(max_size=3)))
    def test_timeline_csv_matches_csv_writer(self, labels, header):
        # graph JSON cannot carry a NUL label, which csv on 3.10 refuses to write
        g = ArchGraph()
        g.add(Input(), [], label=labels[0])
        for label in labels[1:]:
            g.add(Conv(4), [len(g.kinds) - 1], label=label)
        g.infer_shapes(TensorShape(3, 4, 4))
        prof = peak_memory(g)
        buf = io.StringIO()
        for k in sorted(header or ()):
            buf.write(f"# {k}: {header[k]}\n")
        w = csv.writer(buf)
        w.writerow(["step", "node", "live_bytes"])
        w.writerows((nid, label or str(nid), b) for nid, (label, b) in
                    enumerate(zip(labels, prof.steps)))
        assert timeline_csv(g, prof, header=header) == buf.getvalue()

    def test_timeline_csv_rows(self):
        g, _ = chain()
        prof = peak_memory(g)
        text = timeline_csv(g, prof)
        lines = text.strip().splitlines()
        assert lines[0] == "step,node,live_bytes"
        assert len(lines) == 1 + len(g.nodes)


class TestFlushProperty:
    @pytest.mark.parametrize("L", [2, 4, 8, 16, 32])
    def test_flush_exhaustive(self, L):
        g, res = build_bare_hdb(HDBSpec(L, 8, 1.6), TensorShape(16, 64, 64))
        report = verify_flush(g, res.layer_nodes)
        powers = [p for p, _ in report]
        assert powers == [2 ** n for n in range(1, L.bit_length())]
        for p, flushed in report:
            assert flushed == list(range(1, p))

    @pytest.mark.parametrize("L", [2, 4, 8, 16, 32])
    def test_flush_against_brute_force(self, L):
        g, res = build_bare_hdb(HDBSpec(L, 8, 1.6), TensorShape(16, 64, 64))
        deaths = brute_force_deaths(g)
        p = 2
        while p <= L:
            step = res.layer_nodes[p]
            for l in range(1, p):
                assert deaths[res.layer_nodes[l]] <= step, (L, p, l)
            p *= 2

    def test_violation_detected(self):
        g, res = build_bare_hdb(HDBSpec(4, 8, 1.6), TensorShape(16, 32, 32))
        # an extra consumer of layer 1 after layer 4 breaks the property
        g.add(Conv(8), [res.layer_nodes[1]])
        g.infer_shapes(TensorShape(16, 32, 32))
        with pytest.raises(AssertionError):
            verify_flush(g, res.layer_nodes)


class TestSweepMatchesScan:
    """The birth/death sweep gives exactly the per-step scan's profile."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_catalog_models(self, name):
        g = hardgraph.build(name)
        for concat_free in (False, True):
            assert_matches_scan(g, concat_free=concat_free)

    @pytest.mark.parametrize("L", [1, 2, 7, 64, 256])
    def test_bare_hdbs(self, L):
        g, _ = build_bare_hdb(HDBSpec(L, 8, 1.6), TensorShape(16, 16, 16))
        for concat_free in (False, True):
            assert_matches_scan(g, concat_free=concat_free)

    @settings(max_examples=200, deadline=None)
    @given(random_dags(), st.sampled_from([1, 2, 4]), st.booleans())
    def test_random_dags(self, g, dtype_bytes, concat_free):
        assert_matches_scan(g, dtype_bytes=dtype_bytes, concat_free=concat_free)
