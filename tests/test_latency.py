import ast
import math
from pathlib import Path

import pytest

import hardgraph
from hardgraph import latency
from hardgraph.graph_ir import (_KIND_NAMES, ArchGraph, Concat, Conv, Input, TensorShape,
                                TransposedConv)
from hardgraph.latency import PRESETS, PlatformModel, model_latency
from hardgraph.metrics import model_summary


def conv_rows(platform, c_in, c_out, h, w, kernel):
    """The metrics and latency rows of the input and the conv of a one-conv graph."""
    g = ArchGraph("one-conv", input_shape=TensorShape(c_in, h, w))
    g.add(Conv(c_out, kernel_h=kernel, kernel_w=kernel), [g.add(Input(), [])])
    return model_summary(g).layers, model_latency(g, platform).layers


def test_latency_is_a_roofline_over_the_layer_table():
    """``latency`` names no layer kind and reads no graph shape or kind: the
    bytes a layer moves, a copied concat's included, are decided in ``layer_table``."""
    path = Path(latency.__file__)
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    kinds = {kind.__name__ for kind in _KIND_NAMES}
    imported = {a.asname or a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not imported & kinds
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert not (names | attrs) & kinds and not attrs & {"kinds", "shapes"}


class TestLayerTime:
    def test_compute_bound_example(self):
        p = PlatformModel("p", 1e12, 1e10)
        # 1x1, 1000 -> 1000 channels at 25x40: 1e9 MACs, 2e6 elements = 8e6 bytes
        (_, m), (_, t) = conv_rows(p, 1000, 1000, 25, 40, 1)
        assert (m.macs, m.cio_bytes) == (10 ** 9, 8 * 10 ** 6)
        assert t.seconds == pytest.approx(1.0e-3) and t.bound == "compute"

    def test_zero_macs_zero_bytes(self):
        # the input row has no MACs and no bytes; at infinite rates neither has the conv
        (m0, _), (t0, _) = conv_rows(PlatformModel("p", 1e12, 1e10), 8, 8, 4, 4, 3)
        assert (m0.macs, m0.cio_bytes) == (0, 0) and (t0.seconds, t0.bound) == (0.0, "none")
        _, (_, t) = conv_rows(PlatformModel("p", math.inf, math.inf), 8, 8, 4, 4, 3)
        assert t.seconds == 0.0

    def test_knee_balances_terms(self):
        # at critical MoC both terms are equal
        (_, m), _ = conv_rows(PlatformModel("p", 1e12, 1e10), 1000, 1000, 25, 40, 1)
        p = PlatformModel("p", 1e12, 1e12 * m.cio_bytes / m.macs)
        _, (_, t) = conv_rows(p, 1000, 1000, 25, 40, 1)
        assert t.seconds == pytest.approx(m.macs / p.peak_macs_per_second)
        assert t.seconds == pytest.approx(m.cio_bytes / p.dram_bytes_per_second)

    def test_max_dominates_each_term(self):
        p = PlatformModel("p", 3e11, 7e9)
        (_, m), (_, t) = conv_rows(p, 7, 13, 11, 17, 3)
        assert t.seconds >= m.macs / p.peak_macs_per_second
        assert t.seconds >= m.cio_bytes / p.dram_bytes_per_second
        assert t.seconds in (m.macs / p.peak_macs_per_second, m.cio_bytes / p.dram_bytes_per_second)


class TestPlatform:
    def test_rates_positive(self):
        with pytest.raises(ValueError):
            PlatformModel("bad", 0, 1e9)

    def test_critical_moc(self):
        p = PlatformModel("p", 1e12, 1e10)
        assert p.critical_moc(4) == pytest.approx(400.0)

    @pytest.mark.parametrize("peak, dram, per_dtype", [
        (1e12, 1e10, (100.0, 200.0, 400.0)),
        (1e12, math.inf, (0.0, 0.0, 0.0)),
        (math.inf, 1e10, (math.inf,) * 3),
        (math.inf, math.inf, (math.inf,) * 3),  # not NaN
    ])
    def test_critical_moc_with_infinite_rates(self, peak, dram, per_dtype):
        p = PlatformModel("p", peak, dram)
        assert tuple(p.critical_moc(d) for d in (1, 2, 4)) == per_dtype

    def test_from_json(self):
        p = PlatformModel.from_json(
            '{"name": "x", "peak_macs_per_second": 1e11, "dram_bytes_per_second": 1e10}')
        assert p.name == "x" and p.peak_macs_per_second == 1e11


class TestModelLatency:
    def test_compute_only_limit(self):
        g = hardgraph.build("hardnet39ds")
        p = PlatformModel("inf-bw", 1e12, math.inf)
        rep = model_latency(g, p)
        conv_macs = sum(m.macs for m, n in zip(model_summary(g).layers, g.nodes)
                        if isinstance(n.kind, (Conv, TransposedConv)))
        assert rep.total_seconds == pytest.approx(conv_macs / 1e12, rel=1e-9)

    def test_memory_only_limit(self):
        g = hardgraph.build("hardnet39ds")
        p = PlatformModel("inf-compute", math.inf, 1e10)
        rep = model_latency(g, p)
        assert rep.total_seconds == pytest.approx(model_summary(g).cio_bytes / 1e10, rel=1e-9)

    def test_monotone_in_rates(self):
        g = hardgraph.build("hardnet39ds")
        slow = model_latency(g, PlatformModel("s", 1e11, 1e10)).total_seconds
        fast = model_latency(g, PlatformModel("f", 2e11, 2e10)).total_seconds
        assert fast <= slow

    def test_memory_bound_ranking_follows_cio(self):
        p = PlatformModel("mem-dominated", 1e30, 1e10)
        names = ["hardnet68", "resnet50", "densenet121", "vgg16", "hardnet39ds"]
        by_latency = sorted(names, key=lambda n: model_latency(hardgraph.build(n), p).total_seconds)
        by_cio = sorted(names, key=lambda n: model_summary(hardgraph.build(n)).cio_elements)
        assert by_latency == by_cio

    def test_concat_copy_adds_time(self):
        g = hardgraph.build("hardnet39ds")
        p = PRESETS["edge-like"]
        base = model_latency(g, p)
        copy = model_latency(g, p, concat_copy=True)
        assert copy.total_seconds > base.total_seconds
        concat_bytes = 2 * 4 * sum(g.shapes[n.id].element_count for n in g.nodes
                                   if isinstance(n.kind, Concat))
        assert copy.total_seconds - base.total_seconds == pytest.approx(
            concat_bytes / p.dram_bytes_per_second)

    def test_bound_classification(self):
        g = hardgraph.build("hardnet68")
        p = PRESETS["gpu-like"]
        crit = p.critical_moc(4)
        rep = model_latency(g, p)
        for n, lt in zip(g.nodes, rep.layers):
            if isinstance(n.kind, (Conv, TransposedConv)):
                lm_ = model_summary(g).layers[n.id]
                assert lt.bound == ("memory" if lm_.moc < crit else "compute")


# each is a platform file and a word its one-line error must contain
BAD_PLATFORMS = {
    "list": ("[1]", "object"),
    "null": ("null", "object"),
    "list rate": ('{"peak_macs_per_second": [1], "dram_bytes_per_second": 1e10}',
                  "peak_macs_per_second"),
    "null rate": ('{"peak_macs_per_second": 1e11, "dram_bytes_per_second": null}',
                  "dram_bytes_per_second"),
    "bool rate": ('{"peak_macs_per_second": true, "dram_bytes_per_second": 1e10}',
                  "peak_macs_per_second"),
    "string rate": ('{"peak_macs_per_second": "1e11", "dram_bytes_per_second": 1e10}',
                    "peak_macs_per_second"),
    "missing rate": ('{"peak_macs_per_second": 1e11}', "dram_bytes_per_second"),
    "number name": ('{"name": 5, "peak_macs_per_second": 1e11, "dram_bytes_per_second": 1e10}',
                    "name"),
    "not JSON": ("{peak", "malformed platform JSON: Expecting"),
    "nested arrays": ("[" * 200_000 + "]" * 200_000, "malformed platform JSON"),
}


class TestPlatformJson:
    @pytest.mark.parametrize("case", BAD_PLATFORMS)
    def test_rejected(self, case):
        text, word = BAD_PLATFORMS[case]
        with pytest.raises(ValueError, match=word):
            PlatformModel.from_json(text)

    def test_decode_failure_is_one_line(self):
        # the decoder gives up on deep nesting with a RecursionError, not a ValueError
        with pytest.raises(ValueError, match="^malformed platform JSON: ") as err:
            PlatformModel.from_json(BAD_PLATFORMS["nested arrays"][0])
        assert type(err.value.__cause__) is RecursionError and "\n" not in str(err.value)

    def test_integer_rates_are_floats(self):
        p = PlatformModel.from_json(
            '{"peak_macs_per_second": 100000000000, "dram_bytes_per_second": 10000000000}')
        assert p == PlatformModel("platform", 1e11, 1e10)
        assert type(p.peak_macs_per_second) is float
