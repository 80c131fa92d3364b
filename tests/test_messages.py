"""The exact text of the messages built from a vocabulary (the missing-factor
policies, NRMSE normalizers, dataset families, config key types), and the
argument guards that the commands never reach with a bad value."""

import json
import re

import numpy as np
import pytest

import basinflow as bf
from basinflow import estimator as est
from basinflow import measurement as ms
from basinflow import report as rp
from basinflow.cli import main
from basinflow.core_net import build_incidence
from basinflow.topology import NetworkSchemaError, network_from_dict

from pipeline_util import capabilities_of, measurement_system, network_doc

MINI_ROWS = [({(1, 0): 1.0}, 100.0, "accept/alpha/agricultural/nitrogen"),
             ({(1, 1): 1.0, (1, 0): -0.5}, 0.0,
              "transport/land/land-1/nitrogen")]


def config_error(tmp_path, capsys, doc, *flags) -> str:
    """stderr of ``estimate`` on a config file holding ``doc``, which must
    exit 1 before it reads any input."""
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["estimate", "--config", str(config), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestRunConfigMessages:
    def test_missing_df_policy(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, {"network": "net.json",
                                              "missing_df_policy": "bogus"})
        assert err == ("error: missing_df_policy must be 'error' or "
                       "'passthrough', got 'bogus'\n")

    def test_nrmse_normalizer(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, {"network": "net.json",
                                              "nrmse_normalizer": "bogus"})
        assert err == ("error: nrmse_normalizer must be one of ('mean', "
                       "'range', 'std'), got 'bogus'\n")

    def test_k_steps_flag(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, {"network": "net.json"},
                           "--k-steps", "0")
        assert err == "error: k_steps must be >= 1\n"

    def test_unknown_dataset_family(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, {"network": "net.json",
                                              "datasets": {"bogus": "x.csv"}})
        assert err == ("error: unknown dataset family 'bogus'; expected one "
                       "of ('applied', 'loads', 'delivery_factors', 'areas')\n")

    def test_top_level_not_an_object(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, '["net.json"]')
        assert err == "error: config file must hold a JSON object\n"

    def test_no_network_file(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, {"k_steps": 2})
        assert err == ("error: no network file given (config key 'network' "
                       "or --network)\n")

    @pytest.mark.parametrize("key, value, want", [
        ("k_steps", 1.5, "int"), ("dt_years", "1", "float"),
        ("datasets", [], "dict"), ("output_dir", 3, "str"),
        ("missing_df_policy", None, "str")])
    def test_key_type(self, tmp_path, capsys, key, value, want):
        err = config_error(tmp_path, capsys, {"network": "net.json",
                                              key: value})
        assert err == (f"error: config key {key!r} must be {want}, got "
                       f"{type(value).__name__}\n")

    @pytest.mark.parametrize("flag, choices", [
        ("--missing-df-policy", ("error", "passthrough")),
        ("--nrmse-normalizer", ("mean", "range", "std"))])
    def test_flag_choices(self, capsys, flag, choices):
        assert main(["estimate", flag, "bogus"]) == 1
        usage = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in usage
        assert re.findall(r"'?([\w-]+)'?(?:, |\))",
                          usage.split("choose from ")[1]) == list(choices)

    def test_county_mode_choices(self, tmp_path, capsys):
        assert main(["synth", "--outlets", "1", "--out", str(tmp_path),
                     "--county-mode", "bogus"]) == 1
        usage = capsys.readouterr().err
        assert re.findall(r"'?([\w-]+)'?(?:, |\))",
                          usage.split("choose from ")[1]) == [
                              "per-segment", "grouped"]


CYCLE_NETWORK = {
    "schema": 1,
    "land_segments": [],
    "outlets": [{"external_id": f"o{i}", "river_segment_id": f"s{i}"}
                for i in (1, 2, 3)],
    "river_links": [{"from_outlet": "o1", "to_node": "o2"},
                    {"from_outlet": "o2", "to_node": "o3"},
                    {"from_outlet": "o3", "to_node": "o1"}],
    "estuaries": [{"external_id": "bay"}],
}


@pytest.mark.parametrize("command", ["validate", "estimate", "report"])
def test_routing_failure_ends_with_an_error_line(tmp_path, capsys, command):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(CYCLE_NETWORK))
    argv = [command, "--network", str(path),
            "--output-dir", str(tmp_path / "out")]
    if command == "report":
        argv += ["--solution", str(tmp_path / "solution.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "network: 0 land segments, 3 outlets, 3 links, 1 estuaries\n"
        if command == "validate" else "")
    unreachable = "no directed path from this outlet reaches an estuary"
    assert captured.err == (
        "[cycle] o1: river links form a cycle: o1 -> o2 -> o3 -> o1\n"
        + "".join(f"[unreachable_estuary] o{i}: {unreachable}\n"
                  for i in (1, 2, 3))
        + "error: routing check failed: 4 violation(s)\n")


class TestLibraryGuards:
    def test_missing_policy(self, chain_network):
        factors = ms.table(ms.DELIVERY_FACTORS)
        with pytest.raises(ValueError) as caught:
            ms.compute_delivery_model(chain_network, factors,
                                      missing_policy="bogus")
        assert str(caught.value) == "unknown missing_policy 'bogus'"

    def test_nrmse_normalizer(self):
        with pytest.raises(ValueError) as caught:
            rp.nrmse([1.0, 2.0], [1.0, 3.0], normalizer="bogus")
        assert str(caught.value) == ("unknown normalizer 'bogus'; expected one "
                                     "of ('mean', 'range', 'std')")
        assert rp.NRMSE_NORMALIZERS == ("mean", "range", "std")

    @pytest.mark.parametrize("normalizer", ["range", "std"])
    def test_nrmse_zero_scale(self, normalizer):
        with pytest.raises(ValueError) as caught:
            rp.nrmse([1.0, 2.0], [3.0, 3.0], normalizer=normalizer)
        assert str(caught.value) == (f"{normalizer} of observed values must "
                                     f"be positive")

    def test_county_mode(self):
        with pytest.raises(ValueError) as caught:
            bf.generate_synthetic(1, county_mode="bogus")
        assert str(caught.value) == "unknown county_mode 'bogus'"

    def test_network_top_level(self):
        with pytest.raises(NetworkSchemaError) as caught:
            network_from_dict([])
        assert str(caught.value) == ("invalid network file: top level must be "
                                     "an object")

    def test_network_missing_group(self, chain_network):
        doc = network_doc(chain_network)
        del doc["outlets"]
        with pytest.raises(NetworkSchemaError) as caught:
            network_from_dict(doc)
        assert caught.value.violations == [
            "missing or non-array field 'outlets'"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"dt": 0.0}, "dt must be positive, got 0.0"),
        ({"dt": -1.0}, "dt must be positive, got -1.0"),
        ({"alpha": 0.0}, "alpha and beta penalties must be positive"),
        ({"beta": -1e-12}, "alpha and beta penalties must be positive")])
    def test_assemble_problem_settings(self, mini_chain_incidence, kwargs,
                                       message):
        constraints = measurement_system(MINI_ROWS, 3)
        with pytest.raises(ValueError) as caught:
            est.assemble_problem(mini_chain_incidence, constraints, **kwargs)
        assert str(caught.value) == message

    def test_assemble_problem_no_capabilities(self):
        m = build_incidence(capabilities_of([]), n_buffers=2)
        with pytest.raises(ValueError) as caught:
            est.assemble_problem(m, measurement_system([], 0))
        assert str(caught.value) == ("cannot assemble a problem with no "
                                     "capabilities")

    def test_fit_report_needs_one_step(self):
        system = ms.expand_constraints(measurement_system(MINI_ROWS, 3), 3)
        with pytest.raises(ValueError) as caught:
            rp.build_fit_report(system, np.zeros(3))
        assert str(caught.value) == "the fit report needs the one-step system"
