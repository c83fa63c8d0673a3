"""Config parsing: schema enforcement, defaults, and the settings digest."""
from dataclasses import fields

import pytest

from dhge.config import _SCHEMA, ConfigError, RunConfig, parse_config_text
from dhge.incremental import UpdateConfig
from dhge.model import ModelConfig

GOOD = """
# retrieval run
[paths]
edges = data/edges.tsv
features = data/features.tsv
schema = data/schema.tsv

[model]
hidden_dim = 32
global_mix = 0.6
fusion_weights = 1.0, 0.5, 0.25

[train]
epochs = 3
cold_start_retrain = yes

[eval]
k_values = 5, 10
negatives_per_user = none

[pipeline]
rng_seed = 42
"""


class TestParsing:
    def test_full_document_parses_with_types(self):
        cfg = RunConfig.from_text(GOOD)
        assert cfg.paths["edges"] == "data/edges.tsv"
        assert cfg.model["hidden_dim"] == 32
        assert cfg.model["fusion_weights"] == (1.0, 0.5, 0.25)
        assert cfg.train["cold_start_retrain"] is True
        assert cfg.eval["k_values"] == (5, 10)
        assert cfg.eval["negatives_per_user"] is None
        assert cfg.pipeline["rng_seed"] == 42
        # untouched sections fall back to defaults
        assert cfg.update["k"] == 8
        assert cfg.model["degree_limit"] == 10

    def test_defaults_constructor(self):
        cfg = RunConfig.defaults(edges="e.tsv")
        assert cfg.paths["edges"] == "e.tsv"
        assert cfg.paths["snapshot_dir"] == "snapshots"
        assert cfg.train["learning_rate"] == pytest.approx(5e-4)

    def test_comments_and_blanks_ignored(self):
        vals = parse_config_text("# only a comment\n\n   \n")
        assert vals["model"]["hidden_dim"] == 64

    def test_unknown_section_fails_with_location(self):
        with pytest.raises(ConfigError, match=r"run\.ini:2: unknown section"):
            RunConfig.from_text("\n[modle]\n", source="run.ini")

    def test_unknown_key_fails_with_location(self):
        with pytest.raises(ConfigError, match=r":2: unknown key 'hiden_dim'"):
            RunConfig.from_text("[model]\nhiden_dim = 3\n")

    def test_duplicate_key_fails(self):
        with pytest.raises(ConfigError, match="duplicate key 'epochs'"):
            RunConfig.from_text("[train]\nepochs = 1\nepochs = 2\n")

    def test_key_outside_section_fails(self):
        with pytest.raises(ConfigError, match="outside any"):
            RunConfig.from_text("epochs = 1\n")

    def test_missing_equals_fails(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            RunConfig.from_text("[train]\nepochs 1\n")

    def test_bad_typed_value_fails(self):
        with pytest.raises(ConfigError, match=r"bad value for train\.epochs"):
            RunConfig.from_text("[train]\nepochs = soon\n")
        with pytest.raises(ConfigError, match="not a boolean"):
            RunConfig.from_text("[train]\ncold_start_retrain = maybe\n")
        with pytest.raises(ConfigError, match="three comma-separated"):
            RunConfig.from_text("[model]\nfusion_weights = 1, 2\n")

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_file(tmp_path / "absent.ini")


class TestValidation:
    def test_range_checks_delegate_to_dataclasses(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[model]\nglobal_mix = 1.5\n")
        with pytest.raises(ConfigError):
            RunConfig.from_text("[model]\ndropout = 1.0\n")
        with pytest.raises(ConfigError):
            RunConfig.from_text("[update]\nalpha = -0.2\n")
        with pytest.raises(ConfigError):
            RunConfig.from_text("[update]\nk = 0\n")
        with pytest.raises(ConfigError):
            RunConfig.from_text("[train]\nepochs = -1\n")
        with pytest.raises(ConfigError):
            RunConfig.from_text("[eval]\nnegatives_per_user = 0\n")
        with pytest.raises(ConfigError, match="k_values"):
            RunConfig.from_text("[eval]\nk_values = 0\n")
        with pytest.raises(ConfigError, match="refine_steps"):
            RunConfig.from_text("[update]\nrefine_steps = -1\n")
        with pytest.raises(ConfigError, match="refine_step_size"):
            RunConfig.from_text("[update]\nrefine_step_size = 0\n")
        with pytest.raises(ConfigError, match="refine_mu"):
            RunConfig.from_text("[update]\nrefine_mu = -0.5\n")

    def test_require_paths(self):
        cfg = RunConfig.defaults(edges="e.tsv")
        cfg.require_paths("edges")
        with pytest.raises(ConfigError, match="features"):
            cfg.require_paths("edges", "features")

    def test_derived_objects_carry_settings(self):
        cfg = RunConfig.from_text(GOOD)
        mc = cfg.model_config(input_dim=12)
        assert mc.input_dim == 12
        assert mc.hidden_dim == 32
        assert mc.global_mix == 0.6
        assert mc.rng_seed == 42
        uc = cfg.update_config()
        assert uc.k == 8
        proto = cfg.protocol()
        assert proto.k_values == (5, 10)
        assert proto.negatives_per_user is None
        assert proto.rng_seed == 42


class TestDigest:
    def test_digest_stable_and_path_independent(self):
        a = RunConfig.from_text(GOOD)
        b = RunConfig.from_text(GOOD.replace("data/edges.tsv", "elsewhere.tsv"))
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_digest_changes_with_any_behavior_setting(self):
        base = RunConfig.from_text(GOOD).digest()
        for mutation in ("[model]\ndropout = 0.1\n",
                         "[train]\nweight_decay = 0.2\n",
                         "[update]\nalpha = 0.4\n",
                         "[pipeline]\ncapture_alignment = no\n"):
            changed = RunConfig.from_text(GOOD + "\n" + mutation)
            assert changed.digest() != base, mutation

    def test_equivalent_spellings_digest_identically(self):
        a = RunConfig.from_text("[train]\ncold_start_retrain = yes\n")
        b = RunConfig.from_text("[train]\ncold_start_retrain = 1\n")
        assert a.digest() == b.digest()

    def test_defaults_digest_matches_golden(self):
        # the digest of the defaults before [model] and [update] were derived
        assert (RunConfig.defaults().digest()
                == "c4a2edf7996d4349df8777bb5a3a9cd3a87fca94a7ee587b0dadfebb1be8ffb5")


def test_model_and_update_keys_are_the_dataclass_fields():
    assert set(_SCHEMA["update"]) == {f.name for f in fields(UpdateConfig)}
    assert set(_SCHEMA["model"]) == {f.name for f in fields(ModelConfig)} - {"input_dim",
                                                                               "rng_seed"}
