import math

import pytest

import hardgraph
from hardgraph import references, registry
from hardgraph.graph_ir import Conv, TensorShape
from hardgraph.harmonic import log_links
from hardgraph.metrics import model_summary
from hardgraph.references import _BUILDERS, _FC_CONFIGS, build_reference
from hardgraph.registry import default_input


class TestSparseLinks:
    def test_dense_all(self):
        # DenseNet's rule is range: layer k reads layers 0 .. k - 1
        assert {name for name, cfg in _FC_CONFIGS.items() if cfg[3] is range} == {
            "fc-densenet56", "fc-densenet67", "fc-densenet103", "fc-densenet-ref100"}
        assert _FC_CONFIGS["fc-sparsenet-ref100"][3] is log_links
        g = build_reference("fc-densenet56", default_input("fc-densenet56"))
        l4 = next(n for n in g.nodes if n.label == "enc0/l4")
        cat = g.nodes[l4.inputs[0]]
        assert [g.labels[i] for i in cat.inputs] == ["stem", "enc0/l1", "enc0/l2", "enc0/l3"]

    def test_log_rule(self):
        assert log_links(5) == [4, 3, 1]

    def test_log_layer_one(self):
        assert log_links(1) == [0]

    def test_layer_zero_rejected(self):
        with pytest.raises(ValueError):
            log_links(0)

    def test_fan_in_growth(self):
        for k in range(1, 300):
            links = log_links(k)
            assert len(links) == math.floor(math.log2(k)) + 1
            assert links == sorted(set(links), reverse=True) and set(links) <= set(range(k))


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_builds_validates_and_infers(self, name):
        g = build_reference(name, default_input(name))
        assert len(g.shapes) == len(g.kinds)
        order = g.schedule()
        assert sorted(order) == [n.id for n in g.nodes]

    def test_unknown_model(self, monkeypatch):
        # registry.build is the one name check: an unknown name reaches no builder
        monkeypatch.setattr(references, "build_reference", lambda *a: pytest.fail("builder ran"))
        with pytest.raises(KeyError, match="^\"unknown model 'AlexNet'; see list-models\"$"):
            registry.build("AlexNet", TensorShape(3, 224, 224))

    def test_densenet121_params(self):
        s = model_summary(hardgraph.build("densenet121"))
        assert abs(s.params_m - 7.9) / 7.9 < 0.02

    def test_resnet50_params_and_macs(self):
        s = model_summary(hardgraph.build("resnet50"))
        assert abs(s.params_m - 25.0) / 25.0 < 0.03
        assert abs(s.macs_g - 4.1) / 4.1 < 0.05

    def test_vgg16_params(self):
        s = model_summary(hardgraph.build("vgg16"))
        assert abs(s.params_m - 138.4) / 138.4 < 0.01

    def test_fc_densenet103_params(self):
        s = model_summary(hardgraph.build("fc-densenet103"))
        assert abs(s.params_m - 9.4) / 9.4 < 0.05

    def test_fc_sparsenet_uses_log_links(self):
        g = build_reference("fc-sparsenet-ref100", default_input("fc-sparsenet-ref100"))
        # an 8-layer block's layer 8 reads 4 predecessors under the log rule
        l8 = next(n for n in g.nodes if n.label == "enc0/l8")
        cat = g.nodes[l8.inputs[0]]
        assert len(cat.inputs) == 4
        # the fixed block output reads like a layer 9: layers 8, 7, 5 and 1
        out = next(n for n in g.nodes if n.label == "enc0/out")
        assert [g.nodes[i].label for i in out.inputs] == ["enc0/l8", "enc0/l7", "enc0/l5", "enc0/l1"]

    def test_resnet_projection_only_on_downsample(self):
        g = build_reference("resnet50", default_input("resnet50"))
        projs = [n for n in g.nodes if n.label and n.label.endswith("/proj")]
        assert len(projs) == 4  # one per stage
