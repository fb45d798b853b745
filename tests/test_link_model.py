"""LinkModel: presets, spec parsing, validation, seed derivation."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.network.link import (
    PRESET_CONSTANTS,
    LinkModel,
    derive_network_seed,
    parse_link_spec,
)
from repro.obs.spans import SpanCosts


class TestLinkModel:
    def test_ideal_defaults(self):
        link = LinkModel.ideal()
        assert link.is_ideal
        assert link.per_byte_s == 0.0
        assert link.serialization_s(4096) == 0.0

    def test_presets_read_canonical_constants(self):
        for name, constants in PRESET_CONSTANTS.items():
            link = LinkModel.from_preset(name)
            assert link.overhead_s == constants["overhead_s"]
            assert link.bandwidth == constants["bandwidth"]
            assert link.latency_s == constants["latency_s"]
            assert link.access_s == constants["access_s"]
            assert not link.is_ideal

    def test_preset_overrides(self):
        link = LinkModel.from_preset("ethernet_1992", loss=0.1, timeout_s=2e-3)
        assert link.loss == 0.1
        assert link.timeout_s == 2e-3
        assert link.bandwidth == PRESET_CONSTANTS["ethernet_1992"]["bandwidth"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown link preset"):
            LinkModel.from_preset("token_ring")

    def test_serialization_time(self):
        link = LinkModel(bandwidth=1e6)
        assert link.serialization_s(1000) == pytest.approx(1e-3)
        assert link.per_byte_s == pytest.approx(1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_s": -1.0},
            {"loss": 1.0},
            {"loss": -0.1},
            {"max_retries": -1},
            {"loss": 0.5, "timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LinkModel(**kwargs)

    def test_to_dict_roundtrip(self):
        link = LinkModel.ethernet_1992(loss=0.05, jitter_s=1e-4)
        assert LinkModel(**link.to_dict()) == link


class TestParseLinkSpec:
    def test_bare_preset(self):
        assert parse_link_spec("ethernet_1992") == LinkModel.ethernet_1992()
        assert parse_link_spec("ideal") == LinkModel.ideal()

    def test_key_values_with_suffixes(self):
        link = parse_link_spec("latency=200us,bw=100MB/s,loss=1%,jitter=50us")
        assert link.latency_s == pytest.approx(200e-6)
        assert link.bandwidth == pytest.approx(100e6)
        assert link.loss == pytest.approx(0.01)
        assert link.jitter_s == pytest.approx(50e-6)

    def test_preset_plus_overrides(self):
        link = parse_link_spec("ethernet_1992,loss=0.02,timeout=5ms,retries=3")
        assert link.overhead_s == 1e-3
        assert link.loss == 0.02
        assert link.timeout_s == pytest.approx(5e-3)
        assert link.max_retries == 3

    def test_bare_numbers_are_base_units(self):
        link = parse_link_spec("latency=0.001,bw=1250000")
        assert link.latency_s == 1e-3
        assert link.bandwidth == 1.25e6

    def test_preset_must_come_first(self):
        with pytest.raises(ConfigError, match="must come first"):
            parse_link_spec("loss=1%,ethernet_1992")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown --network key"):
            parse_link_spec("warp=9")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad --network value"):
            parse_link_spec("latency=fast")


class TestNetworkSeed:
    def test_deterministic(self):
        link = LinkModel.ethernet_1992(loss=0.05)
        assert derive_network_seed(1, "LI", link) == derive_network_seed(1, "LI", link)

    def test_distinct_across_inputs(self):
        link = LinkModel.ethernet_1992(loss=0.05)
        seeds = {
            derive_network_seed(1, "LI", link),
            derive_network_seed(2, "LI", link),
            derive_network_seed(1, "LU", link),
            derive_network_seed(1, "LI", link.with_options(loss=0.06)),
            derive_network_seed(None, "LI", link),
        }
        assert len(seeds) == 5

    def test_none_seed_is_zero_seed(self):
        link = LinkModel.ideal()
        assert derive_network_seed(None, "LI", link) == derive_network_seed(0, "LI", link)


class TestSpanCostsPresets:
    """Untimed span runs are weighted by these; the audit digests pin them."""

    def test_ethernet_preset_matches_historical_literals(self):
        assert SpanCosts.from_preset("ethernet_1992") == SpanCosts(
            message_s=1e-3,
            byte_s=8e-7,  # 1 / 1.25e6 exactly, in IEEE doubles
            access_s=5e-8,
            diff_create_s=5e-4,
            diff_apply_s=2e-4,
        )
        assert SpanCosts.ethernet_1992() == SpanCosts.from_preset("ethernet_1992")

    def test_modern_preset_matches_historical_literals(self):
        assert SpanCosts.from_preset("modern_cluster") == SpanCosts(
            message_s=5e-6,
            byte_s=1e-10,
            access_s=1e-9,
            diff_create_s=2e-6,
            diff_apply_s=1e-6,
        )

    def test_from_link_uses_link_wire_constants(self):
        link = LinkModel(latency_s=1e-4, bandwidth=1e7, overhead_s=2e-4, access_s=3e-9)
        costs = SpanCosts.from_link(link)
        assert costs.message_s == pytest.approx(3e-4)
        assert costs.byte_s == pytest.approx(1e-7)
        assert costs.access_s == 3e-9
        # CPU-side diff constants still come from the named preset.
        assert costs.diff_create_s == PRESET_CONSTANTS["ethernet_1992"]["diff_create_s"]
