import math

import pytest
from hypothesis import given, strategies as st

from hardgraph import harmonic, registry
from hardgraph.blocks import TransitionSpec, build_transition, round_even
from hardgraph.graph_ir import ArchGraph, Concat, Conv, Input, TensorShape
from hardgraph.harmonic import (HDBSpec, bottleneck_channels, build_bare_hdb, build_hdb,
                                build_model, channel_width, hdb_links, v2)
from hardgraph.metrics import model_summary
from hardgraph.registry import default_input
from test_layer_table import conv_input_shape


def brute_links(k, max_n=12):
    """Direct enumeration of the divisibility rule."""
    out = {k - 2 ** n for n in range(max_n)
           if k % (2 ** n) == 0 and k - 2 ** n >= 0}
    return sorted(out, reverse=True)


class TestLinks:
    def test_layer_one(self):
        assert hdb_links(1) == [0]

    def test_layer_six(self):
        assert hdb_links(6) == [5, 4]

    def test_layer_eight(self):
        assert hdb_links(8) == [7, 6, 4, 0]

    def test_layer_zero_rejected(self):
        with pytest.raises(ValueError):
            hdb_links(0)

    def test_against_brute_force_oracle(self):
        for k in range(1, 1025):
            assert hdb_links(k) == brute_links(k), k
            assert len(hdb_links(k)) == v2(k) + 1

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_fan_in_bound(self, k):
        links = hdb_links(k)
        assert len(links) == v2(k) + 1
        assert len(links) == min(v2(k) + 1, math.floor(math.log2(k)) + 1)


class TestChannelWidth:
    def test_odd_index_is_growth_rate(self):
        assert channel_width(5, 26, 1.6) == 26

    def test_even_floor(self):
        assert channel_width(2, 26, 1.6) == 40  # 41.6 floored to even

    def test_high_power(self):
        assert channel_width(8, 26, 1.6) == 106  # 26 * 1.6^3 = 106.496

    def test_odd_growth_rate_not_floored(self):
        assert channel_width(3, 13, 1.7) == 13


class TestBottleneck:
    def test_exact_square(self):
        assert bottleneck_channels(256, 64) == 128

    def test_identity(self):
        assert bottleneck_channels(64, 64) == 64

    def test_even_floor(self):
        assert bottleneck_channels(190, 106) == 140  # 1.3388 * 106 = 141.9

    def test_never_wider_than_input(self):
        assert bottleneck_channels(32, 128) <= 32


def hdb_on(c_in, spec):
    g = ArchGraph(input_shape=TensorShape(3, 56, 56))
    i = g.add(Input(), [])
    base = g.add(Conv(c_in, kernel_h=1, kernel_w=1), [i]) if c_in != 3 else i
    res = build_hdb(spec, base, g)
    return g, res


class TestBuildHDB:
    def test_depth_two_hand_trace(self):
        g, res = hdb_on(10, HDBSpec(2, 10, 1.6))
        assert g.shapes[res.layer_nodes[1]].channels == 10
        assert g.shapes[res.layer_nodes[2]].channels == 16
        assert g.shapes[res.output].channels == 26

    def test_depth_four_hand_trace(self):
        g, res = hdb_on(10, HDBSpec(4, 10, 1.6))
        widths = [g.shapes[res.layer_nodes[l]].channels for l in range(1, 5)]
        assert widths == [10, 16, 10, 24]
        assert g.shapes[res.output].channels == 44  # concat(l4, l3, l1)

    def test_keep_base_channel_sum(self):
        g, res = hdb_on(64, HDBSpec(8, 14, 1.7, keep_base=True))
        expect = sum(channel_width(l, 14, 1.7) for l in (8, 7, 5, 3, 1)) + 64
        assert g.shapes[res.output].channels == expect

    def test_block_output_closed_form(self):
        # keep_base=False, even L: width(L) + (L/2) * k
        for L, k, m in [(2, 10, 1.6), (4, 12, 1.7), (8, 14, 1.7), (16, 20, 1.6)]:
            g, res = hdb_on(32, HDBSpec(L, k, m))
            assert g.shapes[res.output].channels == channel_width(L, k, m) + (L // 2) * k

    def test_odd_layers_have_growth_rate_channels(self):
        g, res = hdb_on(48, HDBSpec(16, 20, 1.7))
        for l in range(1, 16, 2):
            assert g.shapes[res.layer_nodes[l]].channels == 20

    def test_bottleneck_cadence(self):
        g, res = hdb_on(256, HDBSpec(16, 20, 1.6, use_bottleneck=True))
        bnecks = [n for n in g.nodes if n.label and n.label.endswith("bneck")]
        assert [n.label for n in bnecks] == [f"hdb/l{l}/bneck" for l in (4, 8, 12, 16)]

    def test_depthwise_pairs_in_order(self):
        g, res = hdb_on(48, HDBSpec(4, 16, 1.6, depthwise=True))
        for l in range(1, 5):
            node = g.nodes[res.layer_nodes[l]]
            assert node.label.endswith("/dw")
            pw = g.nodes[node.inputs[0]]
            assert pw.label.endswith("/pw")
            assert node.kind.groups == node.kind.out_channels

    def test_odd_even_memory_ratio(self):
        # sum of even-layer channels (2..14) over odd-layer channels (1..15)
        for m in (1.6, 1.7, 1.8, 1.9):
            even = sum(channel_width(l, 20, m) for l in range(2, 15, 2))
            odd = sum(channel_width(l, 20, m) for l in range(1, 16, 2))
            assert 1.9 <= even / odd <= 3.0, m

    def test_ds_order_minimizes_cio(self):
        # swapping pointwise/depthwise strictly raises CIO when c_in > width
        g, res = hdb_on(200, HDBSpec(4, 16, 1.6, depthwise=True))
        rows = model_summary(g).layers
        for l in range(1, 5):
            dw = g.nodes[res.layer_nodes[l]]
            pw = g.nodes[dw.inputs[0]]
            c_in = conv_input_shape(g, pw).channels
            w = dw.kind.out_channels
            area = g.shapes[dw.id].height * g.shapes[dw.id].width
            ours = rows[pw.id].cio_elements + rows[dw.id].cio_elements
            swapped = (c_in + c_in) * area + (c_in + w) * area
            if c_in > w:
                assert swapped > ours


class TestTransition:
    def graph(self, c_in, h=56):
        g = ArchGraph(input_shape=TensorShape(3, h, h))
        i = g.add(Input(), [])
        x = g.add(Conv(c_in, kernel_h=1, kernel_w=1), [i])
        return g, x

    def test_standard_reduction_rounding(self):
        g, x = self.graph(328)
        out = build_transition(x, TransitionSpec(red=0.85), g)
        conv = g.nodes[g.nodes[out].inputs[0]]
        assert conv.kind.out_channels == 278  # 0.85 * 328 = 278.8
        assert g.shapes[out].height == 28

    def test_inverted_halves_conv_input(self):
        g, x = self.graph(100)
        out = build_transition(x, TransitionSpec(red=0.85, inverted=True), g)
        conv = g.nodes[out]
        cat_elems = conv_input_shape(g, conv).element_count
        assert cat_elems == 200 * 28 * 28
        assert cat_elems * 2 == 100 * 56 * 56

    def test_explicit_t(self):
        g, x = self.graph(300)
        out = build_transition(x, TransitionSpec(t=256, downsample=False), g)
        assert g.shapes[out].channels == 256

    def test_red_and_t_conflict(self):
        with pytest.raises(ValueError):
            TransitionSpec(red=0.85, t=256)
        with pytest.raises(ValueError):
            TransitionSpec()


class TestModels:
    @pytest.mark.parametrize("name", ["hardnet68", "hardnet39ds", "hardnet96s",
                                      "hardnet117s", "hardnet138l", "fc-hardnet68",
                                      "fc-hardnet84", "fc-hardnet-ref100"])
    def test_builds_and_infers(self, name):
        g = build_model(name, default_input(name))
        assert g.shapes and len(g.shapes) == len(g.kinds)

    def test_unknown_variant(self, monkeypatch):
        # registry.build is the one name check: an unknown name reaches no builder
        monkeypatch.setattr(harmonic, "build_model", lambda *a: pytest.fail("builder ran"))
        with pytest.raises(KeyError, match="^\"unknown model 'HarDNet9000'; see list-models\"$"):
            registry.build("HarDNet9000", TensorShape(3, 224, 224))

    def test_hardnet39ds_is_depthwise_separable(self):
        g = build_model("hardnet39ds", default_input("hardnet39ds"))
        for n in g.nodes:
            if not isinstance(n.kind, Conv) or n.label == "stem0":
                continue
            k = n.kind
            pointwise = k.kernel_h == 1 and k.kernel_w == 1
            depthwise = k.groups > 1 and k.groups == k.out_channels
            assert pointwise or depthwise, n.label

    def test_fc_hardnet84_encoder_layout(self):
        g = build_model("fc-hardnet84", default_input("fc-hardnet84"))
        enc_tags = {n.label.split("/")[0] for n in g.nodes
                    if n.label and (n.label.startswith("enc") or n.label.startswith("bottom"))}
        assert enc_tags == {"enc0", "enc1", "enc2", "enc3", "enc4", "bottom"}

    def test_bare_hdb_layer_map(self):
        g, res = build_bare_hdb(HDBSpec(8, 14, 1.7), TensorShape(32, 56, 56))
        assert set(res.layer_nodes) == set(range(9))


def test_round_even():
    assert round_even(41.6) == 40
    assert round_even(40.0) == 40
    assert round_even(7.9) == 6
