"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria 1-7 reproduce published efficiency-table values (expected numbers
live in hardgraph/data/expected_tables.json, with provenance strings there).
Criteria 8-14 are property checks that do not depend on external numbers.
"""

import json
import math
import subprocess
import sys
from functools import lru_cache

import pytest

import hardgraph
from hardgraph import registry
from hardgraph.catalog import validate_catalog
from hardgraph.graph_ir import (ArchGraph, Conv, Input, Linear, TensorShape,
                                TransposedConv)
from hardgraph.harmonic import (HDBSpec, TransitionSpec, build_bare_hdb,
                                build_transition, channel_width, hdb_links, v2)
from hardgraph.latency import PlatformModel, model_latency
from hardgraph.liveness import verify_flush
from hardgraph.metrics import model_summary


RESULTS: list = []  # printed by the pytest_terminal_summary hook in conftest.py


def record(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


@lru_cache(maxsize=1)
def catalog():
    return {(r.model, r.field): r for r in validate_catalog()}


def table_criterion(num, desc, keys):
    rows = [catalog()[k] for k in keys]
    detail = "; ".join(f"{r.model} {r.field}={r.actual:.3f} vs {r.expected:g}"
                       for r in rows)
    record(num, desc, all(r.passed for r in rows), detail)


def test_criterion_01_hardnet68():
    table_criterion(1, "HarDNet-68 params ±5% of 17.6M, MACs ±8% of 4.3G",
                    [("hardnet68", "params_m"), ("hardnet68", "macs_g")])


def test_criterion_02_hardnet39ds():
    table_criterion(2, "HarDNet-39DS params ±5% of 3.5M, MACs ±8% of 0.44G",
                    [("hardnet39ds", "params_m"), ("hardnet39ds", "macs_g")])


def test_criterion_03_sl_variants():
    table_criterion(3, "HarDNet-117s params ±8% of 20.9M, HarDNet-138s MACs ±10% of 6.7G",
                    [("hardnet117s", "params_m"), ("hardnet138s", "macs_g")])


def test_criterion_04_canonical_references():
    table_criterion(4, "DenseNet-121 (7.9M/2.9G) and ResNet-50 (25M/4.1G), tight bands",
                    [("densenet121", "params_m"), ("densenet121", "macs_g"),
                     ("resnet50", "params_m"), ("resnet50", "macs_g")])


def test_criterion_05_segmentation_models():
    table_criterion(5, "FC-DenseNet103 and FC-HarDNet84 params/GMACs/CIO @352x480",
                    [("fc-densenet103", "params_m"), ("fc-densenet103", "seg_gmacs"),
                     ("fc-densenet103", "cio_mb"),
                     ("fc-hardnet84", "params_m"), ("fc-hardnet84", "seg_gmacs"),
                     ("fc-hardnet84", "cio_mb")])


def test_criterion_06_cio_reductions():
    table_criterion(6, "CIO reductions: FC-HarDNet84 vs FC-DenseNet103 >=35%, "
                       "FC-HarDNet68 vs FC-DenseNet56 >=55%",
                    [("fc-hardnet84 vs fc-densenet103", "cio_reduction_pct"),
                     ("fc-hardnet68 vs fc-densenet56", "cio_reduction_pct")])


def test_criterion_07_cio_ratios():
    table_criterion(7, "CIO ratios: 138s/ResNet-152 in [0.35,0.55], 68/ResNet-50 0.556±0.12",
                    [("hardnet138s/resnet152", "cio_ratio"),
                     ("hardnet68/resnet50", "cio_ratio")])


def test_criterion_08_connection_rule_oracle():
    ok = True
    for k in range(1, 1025):
        brute = sorted({k - 2 ** n for n in range(11)
                        if k % (2 ** n) == 0 and k - 2 ** n >= 0}, reverse=True)
        if hdb_links(k) != brute or len(brute) != v2(k) + 1:
            ok = False
            break
    record(8, "hdb_links matches brute-force divisibility scan for k in 1..1024", ok)


def test_criterion_09_flush_property():
    ok = True
    for L in (2, 4, 8, 16, 32):
        g, res = build_bare_hdb(HDBSpec(L, 8, 1.6), TensorShape(16, 64, 64))
        try:
            report = verify_flush(g, res.layer_nodes)
        except AssertionError:
            ok = False
            break
        # cross-check against an independent last-consumer scan
        sched = g.schedule()
        pos = {nid: i for i, nid in enumerate(sched)}
        for p, flushed in report:
            step = pos[res.layer_nodes[p]]
            for l in flushed:
                nid = res.layer_nodes[l]
                last = max(pos[n.id] for n in g.nodes if nid in n.inputs)
                ok = ok and last <= step
    record(9, "flush property holds exhaustively for bare HDBs, L in {2,4,8,16,32}", ok)


def test_criterion_10_odd_even_ratio():
    ratios = {}
    for m in (1.6, 1.7, 1.8, 1.9):
        even = sum(channel_width(l, 20, m) for l in range(2, 16, 2))
        odd = sum(channel_width(l, 20, m) for l in range(1, 16, 2))
        ratios[m] = even / odd
    ok = all(1.9 <= r <= 3.0 for r in ratios.values())
    record(10, "odd/even channel-sum ratio in [1.9, 3.0] for L=16, m in {1.6..1.9}",
           ok, ", ".join(f"m={m}: {r:.3f}" for m, r in ratios.items()))


def test_criterion_11_inverted_transition():
    def conv_input_elems(inverted):
        g = ArchGraph()
        i = g.add(Input(), [])
        x = g.add(Conv(100, kernel_h=1, kernel_w=1), [i])
        g.infer_shapes(TensorShape(3, 56, 56))
        out = build_transition(x, TransitionSpec(red=0.85, inverted=inverted), g)
        g.infer_shapes(TensorShape(3, 56, 56))
        conv = next(n for n in g.nodes[2:] if isinstance(n.kind, Conv))
        return g.conv_input_shape(conv).element_count

    std, inv = conv_input_elems(False), conv_input_elems(True)
    record(11, "inverted transition halves the Conv1x1 input element count exactly",
           std == 2 * inv, f"standard={std}, inverted={inv}")


def test_criterion_12_scale_law():
    ok = True
    bad = ""
    for name in registry.MODEL_NAMES:
        base = registry.default_input(name)
        big = TensorShape(base.channels, base.height * 2, base.width * 2)
        gs, gb = hardgraph.build(name, base), hardgraph.build(name, big)
        ss, sb = model_summary(gs), model_summary(gb)
        conv = lambda g, s: sum(m.macs for m, n in zip(s.layers, g.nodes)
                                if isinstance(n.kind, (Conv, TransposedConv)))
        if sb.cio_elements != 4 * ss.cio_elements or conv(gb, sb) != 4 * conv(gs, ss):
            ok, bad = False, name
            break
    record(12, "conv CIO and MACs scale exactly x4 when input doubles, all catalog models",
           ok, bad or f"{len(registry.MODEL_NAMES)} models checked")


def test_criterion_13_roofline_limits():
    ok = True
    for name in ("hardnet68", "fc-densenet56"):
        g = hardgraph.build(name)
        s = model_summary(g)
        conv_macs = sum(m.macs for m, n in zip(s.layers, g.nodes)
                        if isinstance(n.kind, (Conv, TransposedConv)))
        t_c = model_latency(g, PlatformModel("c", 1e12, math.inf)).total_seconds
        t_m = model_latency(g, PlatformModel("m", math.inf, 1e10)).total_seconds
        ok = ok and abs(t_c - conv_macs / 1e12) <= 1e-9 * t_c
        ok = ok and abs(t_m - s.cio_bytes / 1e10) <= 1e-9 * t_m
    mem = PlatformModel("mem", 1e30, 1e10)
    by_latency = sorted(registry.MODEL_NAMES, key=lambda n: model_latency(
        hardgraph.build(n), mem).total_seconds)
    by_cio = sorted(registry.MODEL_NAMES, key=lambda n: model_summary(
        hardgraph.build(n)).cio_elements)
    ok = ok and by_latency == by_cio
    record(13, "roofline compute-only and memory-only limits (1e-9 rel), "
               "memory-bound ranking equals CIO ranking", ok)


def test_criterion_14_round_trip_determinism():
    g = hardgraph.build("hardnet68")
    g2 = ArchGraph.from_json(g.to_json())
    g2.infer_shapes(g.input_shape)
    fields_ok = model_summary(g) == model_summary(g2)
    json_ok = g.to_json() == g2.to_json()
    cmd = [sys.executable, "-m", "hardgraph.cli", "analyze", "hardnet39ds"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    record(14, "JSON export/import/analyze field-identical; repeated runs byte-identical",
           fields_ok and json_ok and a == b and bool(a))
