"""The seeded random-CDFG generator: determinism, knobs, families."""

import pytest

from repro.circuits import CIRCUITS, FAMILIES, build, register_family
from repro.gen import PRESETS, GenConfig, generate, random_cdfg
from repro.ir.graph import CDFGError
from repro.ir.ops import Op
from repro.ir.validate import validate
from repro.pipeline import graph_fingerprint


class TestDeterminism:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_same_seed_same_graph(self, preset):
        a = random_cdfg(11, preset=preset)
        b = random_cdfg(11, preset=preset)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_different_seeds_differ(self):
        fingerprints = {graph_fingerprint(random_cdfg(seed))
                        for seed in range(8)}
        assert len(fingerprints) == 8

    def test_generate_is_pure_in_the_config(self):
        config = GenConfig(seed=3, n_ops=12, mux_density=0.4)
        assert graph_fingerprint(generate(config)) == \
            graph_fingerprint(generate(config))


class TestValidity:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 1, 97])
    def test_every_graph_validates(self, preset, seed):
        graph = random_cdfg(seed, preset=preset)
        validate(graph)  # no dead ops, no cycles, arity correct
        assert graph.outputs()

    def test_reaches_the_op_target(self):
        for seed in range(10):
            graph = random_cdfg(seed, preset="medium")
            assert len(graph.operations()) >= PRESETS["medium"].n_ops


class TestKnobs:
    def test_op_mix_is_respected(self):
        only_adds = GenConfig(seed=1, n_ops=20, op_mix=(("add", 1.0),),
                              mux_density=0.0)
        graph = generate(only_adds)
        kinds = {n.op for n in graph.operations()}
        assert kinds == {Op.ADD}

    def test_mux_density_zero_means_no_conditionals(self):
        graph = generate(GenConfig(seed=2, n_ops=20, mux_density=0.0))
        assert not graph.muxes()

    def test_high_mux_density_makes_branchy_graphs(self):
        graph = generate(GenConfig(seed=2, n_ops=30, mux_density=0.9,
                                   mutex_density=1.0))
        assert len(graph.muxes()) >= 4

    def test_mutex_branches_are_private_to_one_mux_side(self):
        """With mutex_density=1 every MUX data input has exactly one
        consumer (the mux itself) — the mutually-exclusive-cone shape
        the PM pass exploits."""
        graph = generate(GenConfig(seed=5, n_ops=24, mux_density=0.6,
                                   mutex_density=1.0))
        assert graph.muxes()
        for mux in graph.muxes():
            for side in (0, 1):
                producer = mux.data_operand(side)
                node = graph.node(producer)
                if node.is_schedulable:
                    assert graph.data_succs(producer) == (mux.nid,)

    def test_reuse_window_controls_depth(self):
        from repro.sched.timing import critical_path_length

        base = dict(seed=7, n_ops=24, mux_density=0.0, n_inputs=2)
        deep = generate(GenConfig(reuse_window=1, **base))
        wide = generate(GenConfig(reuse_window=None,
                                  n_inputs=8, **{k: v for k, v in base.items()
                                                 if k != "n_inputs"}))
        assert critical_path_length(deep) > critical_path_length(wide)

    def test_nesting_depth_zero_disables_conditionals(self):
        graph = generate(GenConfig(seed=3, n_ops=16, mux_density=0.9,
                                   nesting_depth=0))
        assert not graph.muxes()

    @pytest.mark.parametrize("bad", [
        dict(n_ops=0),
        dict(n_inputs=0),
        dict(branch_ops=0),
        dict(nesting_depth=-1),
        dict(reuse_window=0),
        dict(mux_density=1.5),
        dict(mutex_density=-0.1),
        dict(op_mix=(("divide", 1.0),)),
        dict(op_mix=(("add", 0.0),)),
    ])
    def test_bad_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            generate(GenConfig(**bad))

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown generator preset"):
            random_cdfg(1, preset="gigantic")


class TestFamilyRegistry:
    def test_build_by_spec_matches_direct_call(self):
        assert graph_fingerprint(build("gen:branchy:9")) == \
            graph_fingerprint(random_cdfg(9, preset="branchy"))

    def test_bare_seed_selects_medium(self):
        assert graph_fingerprint(build("gen:42")) == \
            graph_fingerprint(random_cdfg(42, preset="medium"))

    def test_graph_is_named_after_its_spec(self):
        assert build("gen:small:5").name == "gen:small:5"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="bad generator spec"):
            build("gen:small:notanumber")
        with pytest.raises(ValueError, match="unknown preset"):
            build("gen:gigantic:1")  # ValueError, so the CLI surfaces it
        with pytest.raises(KeyError, match="unknown circuit family"):
            build("nonesuch:1:2")
        with pytest.raises(KeyError, match="unknown circuit"):
            build("nonesuch")

    def test_unknown_family_error_names_lazy_families_too(self):
        with pytest.raises(KeyError, match="'gen'"):
            build("nonesuch:1:2")

    def test_register_family_validation(self):
        with pytest.raises(ValueError, match="bad family prefix"):
            register_family("a:b", lambda spec: None)
        with pytest.raises(ValueError, match="collides"):
            register_family("gcd", lambda spec: None)

    def test_custom_family_round_trip(self):
        from repro.circuits import abs_diff

        register_family("testfam", lambda spec: abs_diff())
        try:
            assert graph_fingerprint(build("testfam:x")) == \
                graph_fingerprint(abs_diff())
        finally:
            FAMILIES.pop("testfam", None)

    def test_gen_prefix_does_not_collide_with_benchmarks(self):
        assert "gen" not in CIRCUITS


class TestSynthesizable:
    """Generated graphs run through the whole flow unmodified."""

    @pytest.mark.parametrize("seed", [0, 13])
    def test_full_flow(self, seed):
        from repro.pipeline import FlowConfig, Pipeline
        from repro.sched.timing import critical_path_length

        graph = random_cdfg(seed, preset="small")
        steps = critical_path_length(graph) + 1
        result = Pipeline().run(graph, FlowConfig(n_steps=steps,
                                                  verify=True))
        assert result.design.area().total > 0
