"""Tests for technology descriptions, layers and design rules."""

import pytest

from repro.technology import NMOS, nmos_technology
from repro.technology.layers import Layer, LayerPurpose, LayerSet
from repro.technology.rules import DesignRule, RuleKind, RuleSet


class TestLayers:
    def test_nmos_layer_lookup_by_name(self):
        assert NMOS.layer("diffusion").cif_name == "ND"
        assert NMOS.layer("metal").cif_name == "NM"

    def test_lookup_by_cif_name(self):
        assert NMOS.layers.by_cif_name("NP").name == "poly"
        assert NMOS.layers.by_cif_name("nope") is None

    def test_unknown_layer_raises(self):
        with pytest.raises(KeyError):
            NMOS.layer("copper")

    def test_has_layer(self):
        assert NMOS.has_layer("poly")
        assert not NMOS.has_layer("nwell")

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError):
            LayerSet([
                Layer("a", "A", LayerPurpose.METAL),
                Layer("a", "B", LayerPurpose.POLY),
            ])

    def test_conducting_layers(self):
        conducting = {layer.name for layer in NMOS.layers.conducting_layers()}
        assert conducting == {"diffusion", "poly", "metal"}

    def test_purpose_flags(self):
        assert LayerPurpose.METAL.is_conducting
        assert not LayerPurpose.IMPLANT.is_conducting
        assert not LayerPurpose.LABEL.is_drawn_mask


class TestRules:
    def test_min_width_lookup(self):
        assert NMOS.rules.min_width("metal") == 3
        assert NMOS.rules.min_width("poly") == 2

    def test_min_spacing_symmetric(self):
        assert NMOS.rules.min_spacing("poly", "diffusion") == \
            NMOS.rules.min_spacing("diffusion", "poly")

    def test_missing_rule_with_default(self):
        assert NMOS.rules.min_width("overglass", default=1) == 100
        assert NMOS.rules.value(RuleKind.MIN_WIDTH, "buried", default=7) == 7

    def test_missing_rule_without_default_raises(self):
        with pytest.raises(KeyError):
            NMOS.rules.min_width("buried")

    def test_rule_arity_enforced(self):
        with pytest.raises(ValueError):
            DesignRule(RuleKind.MIN_SPACING, ("metal",), 3)
        with pytest.raises(ValueError):
            DesignRule(RuleKind.MIN_WIDTH, ("metal", "poly"), 3)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            DesignRule(RuleKind.MIN_WIDTH, ("metal",), -1)

    def test_duplicate_rule_rejected(self):
        rules = RuleSet([DesignRule(RuleKind.MIN_WIDTH, ("metal",), 3)])
        with pytest.raises(ValueError):
            rules.add(DesignRule(RuleKind.MIN_WIDTH, ("metal",), 4))

    def test_rules_for_layer(self):
        for rule in NMOS.rules.rules_for_layer("contact"):
            assert "contact" in rule.layers

    def test_rules_of_kind(self):
        widths = NMOS.rules.rules_of_kind(RuleKind.MIN_WIDTH)
        assert all(rule.kind is RuleKind.MIN_WIDTH for rule in widths)
        assert len(widths) >= 4


class TestTechnologyScaling:
    def test_default_lambda(self):
        assert NMOS.lambda_nm == 2500
        assert NMOS.cif_scale == 250

    def test_rescaled_technology(self):
        fine = nmos_technology(lambda_nm=1000)
        assert fine.cif_scale == 100
        # Rules are dimensionless, so they do not change with lambda.
        assert fine.rules.min_width("metal") == NMOS.rules.min_width("metal")

    def test_non_multiple_of_10_rejected_for_cif(self):
        odd = nmos_technology(lambda_nm=1234)
        with pytest.raises(ValueError):
            _ = odd.cif_scale

    def test_properties(self):
        assert NMOS.property("pullup_pulldown_ratio") == 4.0
        assert NMOS.property("missing", default=1.5) == 1.5
        with pytest.raises(KeyError):
            NMOS.property("missing")

    def test_repr_mentions_name(self):
        assert "nmos" in repr(NMOS)
