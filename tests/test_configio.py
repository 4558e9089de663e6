"""Configuration documents: serialization, parsing, preset resolution."""

import json

import pytest

from bsrnnlite import ConfigError, LwrStrategy, SbpStrategy
from bsrnnlite import canonical_config, preset_config, preset_names
from bsrnnlite import load_config, save_config
from bsrnnlite.cli import EXIT_CONFIG, main
from bsrnnlite.configio import config_from_dict, config_to_dict

from util import tiny_config, with_fields


class TestRoundTrip:
    @pytest.mark.parametrize("name", preset_names())
    def test_preset_through_dict(self, name):
        cfg = preset_config(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_tiny_with_all_toggles_through_file(self, tmp_path):
        cfg = tiny_config()
        for variant in (cfg.with_groups(2),
                        cfg.with_resample(LwrStrategy.alternating(2)),
                        cfg.with_prune(SbpStrategy.progressive()),
                        cfg.with_resample(LwrStrategy.sync(4, (1,)))):
            path = tmp_path / "c.json"
            save_config(variant, path)
            assert load_config(path) == variant

    def test_document_is_plain_json(self, tmp_path):
        path = tmp_path / "c.json"
        save_config(canonical_config(), path)
        doc = json.loads(path.read_text())
        assert doc["feature_dim"] == 126 and doc["hidden_dim"] == 72
        assert doc["lwr"] == {"kind": "none"} and doc["sbp"] == {"kind": "none"}
        assert doc["bands"][0] == [0, 4] and doc["bands"][-1] == [200, 257]


class TestResolution:
    def test_preset_names_are_resolved_first(self):
        assert load_config("canonical-v1") == canonical_config()

    def test_unknown_spec(self):
        with pytest.raises(ConfigError, match="neither a preset"):
            load_config("no-such-thing")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestParsing:
    def doc(self):
        return config_to_dict(tiny_config())

    def test_minimal_document_gets_defaults(self):
        doc = self.doc()
        for key in ("name", "group_size", "lwr", "sbp", "time_rnn_causal",
                    "band_rnn_bidirectional", "mask_hidden_ratio"):
            del doc[key]
        cfg = config_from_dict(doc)
        assert cfg == with_fields(tiny_config(), name="")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            config_from_dict([1, 2])

    @pytest.mark.parametrize("field", ["stft", "bands", "feature_dim",
                                       "hidden_dim", "num_layers"])
    def test_missing_required_field_named(self, field):
        doc = self.doc()
        del doc[field]
        with pytest.raises(ConfigError, match=f"missing required field '{field}'"):
            config_from_dict(doc, source="unit.json")

    def test_error_names_the_source(self):
        with pytest.raises(ConfigError, match="unit.json"):
            config_from_dict({}, source="unit.json")

    def test_bool_is_not_an_int(self):
        doc = self.doc()
        doc["feature_dim"] = True
        with pytest.raises(ConfigError, match="must be int"):
            config_from_dict(doc)

    def test_nested_stft_field_errors(self):
        doc = self.doc()
        del doc["stft"]["hop_size"]
        with pytest.raises(ConfigError, match="stft.*hop_size"):
            config_from_dict(doc)

    def test_malformed_bands(self):
        doc = self.doc()
        doc["bands"] = [[0, 6], [6]]
        with pytest.raises(ConfigError, match="pairs"):
            config_from_dict(doc)

    def test_lwr_needs_kind(self):
        doc = self.doc()
        doc["lwr"] = {"factor": 4}
        with pytest.raises(ConfigError, match="lwr"):
            config_from_dict(doc)

    def test_sbp_needs_kind(self):
        doc = self.doc()
        doc["sbp"] = "aggressive"
        with pytest.raises(ConfigError, match="sbp"):
            config_from_dict(doc)

    def test_bad_strategy_kind_propagates(self):
        doc = self.doc()
        doc["lwr"] = {"kind": "sometimes", "factor": 2}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_model_level_validation_still_runs(self):
        doc = self.doc()
        doc["feature_dim"] = 0
        with pytest.raises(ConfigError):
            config_from_dict(doc)


_STRICT_CASES = [
    ("lrw", lambda d: d.update(lrw=d.pop("lwr"))),
    ("stft.hopsize", lambda d: d["stft"].update(hopsize=256)),
    ("lwr.factr", lambda d: d.update(lwr={"kind": "all", "factr": 2})),
    ("sbp.skip", lambda d: d.update(sbp={"kind": "progressive", "skip": 1})),
    ("time_rnn_causal", lambda d: d.update(time_rnn_causal="no")),
    ("band_rnn_bidirectional", lambda d: d.update(band_rnn_bidirectional=1)),
    ("group_size", lambda d: d.update(group_size="2")),
    ("mask_hidden_ratio", lambda d: d.update(mask_hidden_ratio=True)),
    ("feature_dim", lambda d: d.update(feature_dim=6.0)),
    ("lwr.factor", lambda d: d.update(lwr={"kind": "all", "factor": True})),
    ("lwr.target_layers[0]",
     lambda d: d.update(lwr={"kind": "sync", "factor": 2, "target_layers": ["a"]})),
    ("sbp.skip_bands", lambda d: d.update(sbp={"kind": "aggressive", "skip_bands": "1"})),
    ("stft.sample_rate", lambda d: d["stft"].update(sample_rate=True)),
    ("bands[1][0]", lambda d: d["bands"][1].__setitem__(0, 6.0)),
]


@pytest.mark.parametrize("path, edit", _STRICT_CASES, ids=[c[0] for c in _STRICT_CASES])
def test_strict_parsing_names_the_field_and_exits_4(path, edit, tmp_path, capsys):
    doc = config_to_dict(tiny_config())
    edit(doc)
    file = tmp_path / "c.json"
    file.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(file)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: config:")
    assert f"'{path}'" in err
