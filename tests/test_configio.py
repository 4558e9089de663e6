"""Configuration documents: serialization, parsing, preset resolution."""

import json

import pytest

from bsrnnlite import ConfigError, LwrStrategy, SbpStrategy, canonical_chain
from bsrnnlite import canonical_config, preset_config, preset_names
from bsrnnlite import load_config, save_config
from bsrnnlite.cli import EXIT_CONFIG, main
from bsrnnlite.configio import config_from_dict, config_to_dict

from util import tiny_config, with_fields


_FULL_TEXT = """\
{
  "name": "canonical-v1-full",
  "stft": {
    "sample_rate": 16000,
    "fft_size": 512,
    "hop_size": 256,
    "window": "hann"
  },
  "bands": [
    [
      0,
      4
    ],
    [
      4,
      8
    ],
    [
      8,
      12
    ],
    [
      12,
      16
    ],
    [
      16,
      20
    ],
    [
      20,
      24
    ],
    [
      24,
      28
    ],
    [
      28,
      32
    ],
    [
      32,
      36
    ],
    [
      36,
      40
    ],
    [
      40,
      48
    ],
    [
      48,
      56
    ],
    [
      56,
      64
    ],
    [
      64,
      72
    ],
    [
      72,
      80
    ],
    [
      80,
      88
    ],
    [
      88,
      96
    ],
    [
      96,
      104
    ],
    [
      104,
      128
    ],
    [
      128,
      152
    ],
    [
      152,
      176
    ],
    [
      176,
      200
    ],
    [
      200,
      257
    ]
  ],
  "feature_dim": 126,
  "hidden_dim": 72,
  "num_layers": 6,
  "group_size": 2,
  "lwr": {
    "kind": "async",
    "factor": 16
  },
  "sbp": {
    "kind": "progressive"
  },
  "time_rnn_causal": true,
  "band_rnn_bidirectional": true,
  "mask_hidden_ratio": 4
}
"""

_TINY_EDGE_TEXT = """\
{
  "name": "tiny",
  "stft": {
    "sample_rate": 8000,
    "fft_size": 32,
    "hop_size": 8,
    "window": "hann"
  },
  "bands": [
    [
      0,
      6
    ],
    [
      6,
      12
    ],
    [
      12,
      17
    ]
  ],
  "feature_dim": 6,
  "hidden_dim": 4,
  "num_layers": 2,
  "group_size": 1,
  "lwr": {
    "kind": "sync",
    "factor": 2,
    "target_layers": []
  },
  "sbp": {
    "kind": "aggressive",
    "skip_bands": 0
  },
  "time_rnn_causal": true,
  "band_rnn_bidirectional": true,
  "mask_hidden_ratio": 4
}
"""

_CHAIN_BASE, _CHAIN_ROWS = canonical_chain(extended=True)


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

    @pytest.mark.parametrize("cfg", [
        _CHAIN_BASE, *(cfg for _, cfg in _CHAIN_ROWS),
        canonical_config().with_resample(LwrStrategy.sync(2, ()), "sync-no-targets"),
        canonical_config().with_prune(SbpStrategy.aggressive(0), "aggressive-0"),
    ], ids=lambda cfg: cfg.name)
    def test_chain_row_and_edge_case_through_dict(self, cfg):
        # no target layers and skipping no bands are explicit, not the defaults
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg and back.plan == cfg.plan

    @pytest.mark.parametrize("cfg, text", [
        (preset_config("canonical-v1-full"), _FULL_TEXT),
        (tiny_config(resample=LwrStrategy.sync(2, ()), prune=SbpStrategy.aggressive(0)),
         _TINY_EDGE_TEXT),
    ], ids=["canonical-v1-full", "tiny-sync-none-aggressive-0"])
    def test_saved_text_is_pinned(self, cfg, text, tmp_path):
        path = tmp_path / "c.json"
        save_config(cfg, path)
        assert path.read_text() == text

    @pytest.mark.parametrize("strategy", [LwrStrategy("none", 5), LwrStrategy("sync", 2, (3, 1))],
                             ids=["none-factor-5", "sync-unsorted-targets"])
    def test_non_canonical_strategy_through_dict(self, strategy):
        # a factor that kind "none" ignores and unsorted targets both have one canonical form
        cfg = tiny_config(num_layers=3, resample=strategy)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg and back.plan == cfg.plan

    def test_equal_plans_make_equal_strategies(self):
        assert LwrStrategy("none", 5) == LwrStrategy.none() == LwrStrategy()
        assert LwrStrategy("sync", 2, (3, 1)) == LwrStrategy.sync(2, (1, 3))
        assert LwrStrategy("sync", 2, (3, 1)).target_layers == (1, 3)
        assert hash(LwrStrategy("none", 5)) == hash(LwrStrategy.none())
        assert LwrStrategy("sync", 2, (3, 1)) != LwrStrategy.sync(2, (1, 2))

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
