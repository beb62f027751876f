"""Registry semantics and the three scenario-layer registries."""

import pytest

from repro.core import standard_config
from repro.scenarios import (
    DEVICES,
    STACK_CONFIGS,
    WORKLOADS,
    Registry,
    device_profile,
    register_stack_config,
    stack_config,
)

PAPER_CONFIGS = {"EXT4-DR", "EXT4-OD", "BFS-DR", "BFS-OD", "OptFS"}


class TestRegistry:
    def test_register_get_and_names_are_sorted(self):
        registry = Registry("thing")
        registry.register("beta", 2)
        registry.register("alpha", 1)
        assert registry.get("alpha") == 1
        assert registry.names() == ["alpha", "beta"]
        assert list(registry) == ["alpha", "beta"]
        assert registry.items() == [("alpha", 1), ("beta", 2)]
        assert "alpha" in registry and "gamma" not in registry
        assert len(registry) == 2

    def test_decorator_form_returns_the_object(self):
        registry = Registry("thing")

        @registry.register("klass")
        class Thing:
            pass

        assert registry.get("klass") is Thing

    def test_unknown_name_error_lists_choices(self):
        registry = Registry("gadget")
        registry.register("a", 1)
        with pytest.raises(KeyError, match=r"unknown gadget 'z'.*'a'"):
            registry.get("z")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="duplicate thing"):
            registry.register("a", 2)


class TestStackConfigRegistry:
    def test_paper_configurations_registered(self):
        assert PAPER_CONFIGS <= set(STACK_CONFIGS.names())

    def test_stack_config_resolves_name_device_and_overrides(self):
        config = stack_config("BFS-OD", "ufs", seed=3)
        assert config.filesystem == "barrierfs"
        assert config.sync_call == "fbarrier"
        assert config.device == "ufs"
        assert config.seed == 3

    def test_core_shim_delegates_to_the_registry(self):
        assert standard_config("EXT4-OD", "ufs") == stack_config("EXT4-OD", "ufs")

    def test_unknown_configuration_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown stack configuration"):
            stack_config("EXT5-DR")
        with pytest.raises(KeyError, match="unknown stack configuration"):
            standard_config("EXT5-DR")

    def test_new_configurations_can_be_registered(self):
        register_stack_config(
            "TEST-EXT4-WB", filesystem="ext4", sync_call="fdatasync", no_barrier=True
        )
        config = stack_config("TEST-EXT4-WB", "supercap-ssd")
        assert config.no_barrier and config.device == "supercap-ssd"
        assert "TEST-EXT4-WB" in STACK_CONFIGS.names()
        with pytest.raises(ValueError, match="duplicate stack configuration"):
            register_stack_config("EXT4-DR", filesystem="ext4")


class TestDeviceRegistry:
    def test_evaluation_and_fig1_devices_registered(self):
        names = set(DEVICES.names())
        assert {"ufs", "plain-ssd", "supercap-ssd"} <= names
        assert {"A", "B", "C", "D", "E", "F", "G", "HDD"} <= names

    def test_device_profile_lookup(self):
        assert device_profile("ufs").name == "ufs"
        with pytest.raises(KeyError, match="unknown device"):
            device_profile("floppy")


class TestWorkloadRegistry:
    def test_registered_workloads(self):
        assert {
            "sync-loop", "fxmark", "mysql", "sqlite", "varmail",
            "blocklevel", "ordered-vs-buffered",
        } <= set(WORKLOADS.names())

    def test_unknown_workload_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown workload 'postgres'"):
            WORKLOADS.get("postgres")
