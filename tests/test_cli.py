import json

import pytest

from rumourlens import cli, pipeline, report
from rumourlens.config import RunConfig, build_config, parse_config_file, validate_config
from rumourlens.corpus import load_jsonl, load_pheme_tree
from rumourlens.emotions import CassetteProvider, LexiconFallbackProvider, load_emotion_lexicon
from rumourlens.errors import ConfigError, ParseError
from rumourlens.lexicon import load_lexicon
from rumourlens.senticnet import load_sentic_table
from rumourlens.textprep import load_lemma_exceptions, load_wordlist
from tests.conftest import RESOURCES


def write_config(tmp_path, mini_pheme_dir, **extra):
    lines = {
        "dataset": str(mini_pheme_dir),
        "dataset_format": "pheme",
        "emotion_provider": "fallback",
        "seed": "42",
        "threads": "1",
        "out_dir": str(tmp_path / "out"),
        "run_id": "t",
    }
    lines.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / f"run-{lines['run_id']}.conf"
    path.write_text("# test config\n" + "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
    return path


class TestConfig:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# comment\nseed = 7\n\ndataset = data/x\n")
        assert parse_config_file(path) == {"seed": "7", "dataset": "data/x"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# seed\nseed 7\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert str(err.value) == f"{path}: line 2: expected 'key = value', got 'seed 7'"
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("dataset = x\nthread = 1\n", 2, "unknown config key 'thread'"),
            ("# trees\nn_trees = ten\n", 2, "n_trees: cannot parse 'ten' as int"),
            ("seed = 1\ndataset = x\nseed = 2\n", 3, "key 'seed' set again, first on line 1"),
        ],
        ids=["unknown-key", "bad-value", "key-twice"],
    )
    def test_file_errors_name_the_line(self, tmp_path, text, line, message):
        path = tmp_path / "c.conf"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert str(err.value) == f"{path}: line {line}: {message}"
        assert err.value.line == line

    def test_env_error_names_the_variable(self):
        with pytest.raises(ConfigError) as err:
            build_config({"dataset": "x"}, env={"RUMOURLENS_SEED": "x"})
        assert str(err.value) == "RUMOURLENS_SEED: seed: cannot parse 'x' as int"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config({"dataset": "x", "no_such_key": "1"}, env={})

    def test_type_coercion_error(self):
        with pytest.raises(ConfigError):
            build_config({"dataset": "x", "seed": "notanumber"}, env={})

    def test_env_override_and_flag_precedence(self):
        cfg = build_config(
            {"dataset": "x", "seed": "1"},
            env={"RUMOURLENS_SEED": "2", "RUMOURLENS_ALPHA": "0.01"},
            overrides={"seed": 3},
        )
        assert cfg.seed == 3  # flag beats env beats file
        assert cfg.alpha == 0.01

    def test_range_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("dataset = x\nalpha = 1.5\n")
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_file(path), env={})
        assert str(err.value) == f"{path}: line 2: alpha must be in (0, 1), got 1.5"
        assert err.value.line == 2

    def test_range_error_names_the_variable(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("dataset = x\nk_folds = 5\n")
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_file(path), env={"RUMOURLENS_K_FOLDS": "1"})
        assert str(err.value) == "RUMOURLENS_K_FOLDS: k_folds must be >= 2, got 1"

    def test_range_error_of_a_flag_or_default_names_nothing(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("dataset = x\nalpha = 0.1\n")
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_file(path), env={"RUMOURLENS_ALPHA": "0.2"}, overrides={"alpha": 1.5})
        assert str(err.value) == "alpha must be in (0, 1), got 1.5"
        with pytest.raises(ConfigError) as err:
            build_config({"dataset": "x", "alpha": "1.5"}, env={})  # a plain dict names no file
        assert str(err.value) == "alpha must be in (0, 1), got 1.5"
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_file(path), env={"RUMOURLENS_SCOPE": "all"})
        assert str(err.value) == "RUMOURLENS_SCOPE: bad scope 'all'"

    def test_cli_range_error_names_the_file_line(self, tmp_path, capsys):
        path = tmp_path / "c.conf"
        path.write_text("dataset = x\nalpha = 1.5\n")
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: config: {path}: line 2: alpha must be in (0, 1), got 1.5\n"

    def test_validation_rules(self):
        bad = RunConfig(dataset="x", alpha=1.5)
        with pytest.raises(ConfigError):
            validate_config(bad)
        with pytest.raises(ConfigError):
            validate_config(RunConfig(dataset=""))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(dataset="x", emotion_provider="remote"))

    def test_every_design_tunable_is_a_key(self):
        from dataclasses import fields

        keys = {f.name for f in fields(RunConfig)}
        for tunable in (
            "alpha", "split_ratio", "k_folds", "averaging", "n_trees", "max_features",
            "min_samples_split", "max_depth", "shap_background", "seed", "scope",
            "threads", "emotion_parallel", "easy_words_path", "stopwords_path",
            "lemma_exceptions_path", "sentic_table", "lexicon",
        ):
            assert tunable in keys


class TestCliCommands:
    def test_missing_artifact_ordering(self, tmp_path, mini_pheme_dir, capsys):
        conf = write_config(tmp_path, mini_pheme_dir)
        code = cli.main(["train", "--config", str(conf)])
        assert code == 1
        assert "MissingArtifact" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("dataset =\n")
        assert cli.main(["ingest", "--config", str(conf)]) == 2
        assert "config" in capsys.readouterr().err

    def test_ingest_rejects_a_tweet_whose_text_is_not_a_string(self, tmp_path, capsys):
        thread = tmp_path / "corpus" / "e" / "rumours" / "1" / "source-tweets"
        thread.mkdir(parents=True)
        (thread / "1.json").write_text('{"id_str": "1", "text": null}', encoding="utf-8")
        conf = write_config(tmp_path, tmp_path / "corpus")
        assert cli.main(["ingest", "--config", str(conf)]) == 1
        want = f"error: ParseError: {thread / '1.json'}: tweet 1: text is not a string but None\n"
        assert capsys.readouterr().err == want

    def test_featurize_rejects_a_malformed_lexicon(self, tmp_path, mini_pheme_dir, capsys):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text("[]")
        conf = write_config(tmp_path, mini_pheme_dir, lexicon=lexicon)
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["featurize", "--config", str(conf)]) == 1
        want = f"error: ParseError: {lexicon}: the top level is not an object but list\n"
        assert capsys.readouterr().err == want

    def test_threads_key_still_loads(self, tmp_path, mini_pheme_dir):
        conf = write_config(tmp_path, mini_pheme_dir, threads=2)
        assert cli.main(["ingest", "--config", str(conf)]) == 0

    def test_threads_flag_rejected(self, tmp_path, mini_pheme_dir, capsys):
        conf = write_config(tmp_path, mini_pheme_dir)
        with pytest.raises(SystemExit) as exc:
            cli.main(["ingest", "--config", str(conf), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_ingest_then_featurize(self, tmp_path, mini_pheme_dir):
        conf = write_config(tmp_path, mini_pheme_dir)
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["featurize", "--config", str(conf)]) == 0
        out = tmp_path / "out" / "t"
        assert (out / "partitions.csv").exists()
        assert (out / "features.csv").exists()
        assert (out / "run_config.json").exists()

    def test_stage_rerun_is_byte_identical(self, tmp_path, mini_pheme_dir):
        conf = write_config(tmp_path, mini_pheme_dir)
        cli.main(["ingest", "--config", str(conf)])
        cli.main(["featurize", "--config", str(conf)])
        out = tmp_path / "out" / "t"
        first = (out / "features.csv").read_bytes()
        cli.main(["featurize", "--config", str(conf)])
        assert (out / "features.csv").read_bytes() == first

    def test_compare_alpha_isolation(self, tmp_path, mini_pheme_dir):
        # changing alpha flips only the significance flags, never the p-values
        conf = write_config(tmp_path, mini_pheme_dir)
        cli.main(["ingest", "--config", str(conf)])
        cli.main(["featurize", "--config", str(conf)])
        out = tmp_path / "out" / "t"
        assert cli.main(["compare", "--config", str(conf), "--alpha", "0.05"]) == 0
        loose = report.read_csv_rows(out / "ks_sources.csv")
        assert cli.main(["compare", "--config", str(conf), "--alpha", "0.0001"]) == 0
        strict = report.read_csv_rows(out / "ks_sources.csv")
        assert len(loose) == len(strict)
        for a, b in zip(loose, strict):
            assert a["p_value"] == b["p_value"]
            assert b["significant"] == ("true" if float(b["p_value"]) < 0.0001 else "false")

    def test_jsonl_ingestion_equivalent(self, tmp_path, mini_pheme_dir, mini_pheme_jsonl):
        tree_conf = write_config(tmp_path, mini_pheme_dir, run_id="tree")
        jsonl_conf = write_config(
            tmp_path, mini_pheme_jsonl, dataset_format="jsonl", run_id="jsonl"
        )
        cli.main(["ingest", "--config", str(tree_conf)])
        cli.main(["ingest", "--config", str(jsonl_conf)])
        out = tmp_path / "out"
        tree_bytes = (out / "tree" / "partitions.csv").read_bytes()
        jsonl_bytes = (out / "jsonl" / "partitions.csv").read_bytes()
        assert tree_bytes == jsonl_bytes

    def test_convert_dic_command(self, tmp_path, capsys):
        dic = tmp_path / "toy.dic"
        dic.write_text("%\n1\tpronoun\n%\ni\t1\nwe\t1\n")
        out = tmp_path / "toy.json"
        assert cli.main(["convert-dic", str(dic), str(out)]) == 0
        assert json.loads(out.read_text())["categories"]["pronoun"]["patterns"] == ["i", "we"]

    def test_convert_dic_not_utf8_named(self, tmp_path, capsys):
        dic = tmp_path / "latin1.dic"
        dic.write_bytes(b"%\n1\taffect\n%\ncaf\xe9\t1\n")
        assert cli.main(["convert-dic", str(dic), str(tmp_path / "out.json")]) == 1
        want = f"error: ParseError: {dic}: line 4: not UTF-8: invalid continuation byte\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "out.json").exists()

    def test_fetch_sentic_concepts_not_utf8_named(self, tmp_path, capsys):
        # the concepts file is read before any request, so the URL is never contacted
        concepts = tmp_path / "concepts.txt"
        concepts.write_bytes(b"good_news\ncaf\xe9\n")
        argv = ["fetch-sentic", "--url", "http://127.0.0.1:9", "--concepts", str(concepts)]
        assert cli.main(argv + ["--out", str(tmp_path / "table.csv")]) == 1
        want = f"error: ParseError: {concepts}: line 2: not UTF-8: invalid continuation byte\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize(
        "provider, category, family",
        [
            ("fallback", "anger", "emotion"),
            ("none", "anger", "emotion"),
            ("none", "polarity", "concept-affect"),
        ],
    )
    def test_category_named_like_a_feature_rejected(
        self, tmp_path, mini_pheme_dir, capsys, provider, category, family
    ):
        # convert-dic makes every .dic category top-level, and LIWC has anger
        dic = tmp_path / "clash.dic"
        dic.write_text(f"%\n1\t{category}\n2\tsocial\n%\nmad\t1\nwe\t2\n")
        lexicon = tmp_path / "clash.json"
        assert cli.main(["convert-dic", str(dic), str(lexicon)]) == 0
        conf = write_config(tmp_path, mini_pheme_dir, emotion_provider=provider, lexicon=lexicon)
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["featurize", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert f"error: ParseError: lexicon category {category!r} clashes with the {family}" in err
        assert not (tmp_path / "out" / "t" / report.FEATURES_CSV).exists()

    def test_short_emotion_response_rejected(self, tmp_path, mini_pheme_dir, capsys, monkeypatch):
        # a provider that drops its last 3 results must not leave the last
        # rows without emotion scores. The fallback provider itself scores
        # each tweet from the featurizer's word records, not through
        # `classify`, so a provider that does go through it wraps it here.
        class ShortProvider:
            def classify(self, texts):
                return LexiconFallbackProvider().classify(texts)[:-3]

        monkeypatch.setattr(pipeline, "make_emotion_provider", lambda cfg: ShortProvider())
        conf = write_config(tmp_path, mini_pheme_dir)
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["featurize", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert "error: MalformedResponse: ferrydelay: emotion provider returned 38 results for 41 texts" in err
        assert not (tmp_path / "out" / "t" / report.FEATURES_CSV).exists()

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("emotion_batch_size", 0, ">= 1"),
            ("emotion_parallel", 0, ">= 1"),
            ("emotion_retries", -1, ">= 0"),
            ("emotion_timeout", 0.0, "> 0"),
            ("emotion_timeout", "nan", "> 0"),
        ],
    )
    @pytest.mark.parametrize("provider", ["cassette", "remote"])
    def test_emotion_settings_validated(self, tmp_path, mini_pheme_dir, capsys, provider, key, value, rule):
        # a zero batch size or pool used to surface as a raw ValueError
        # from range() or the thread pool once featurize reached them
        conf = write_config(
            tmp_path,
            mini_pheme_dir,
            emotion_provider=provider,
            emotion_cassette=RESOURCES / "emotion_cassette.jsonl",
            emotion_url="http://localhost:9/classify",
            **{key: value},
        )
        assert cli.main(["featurize", "--config", str(conf)]) == 2
        # the message names the file and the line that set the key
        line = next(n for n, text in enumerate(conf.read_text().splitlines(), 1) if text.startswith(f"{key} ="))
        assert f"error: config: {conf}: line {line}: {key} must be {rule}, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage", ["truncated", "not a number", "empty", "capitalised role", "nan", "inf", "-inf", "Infinity"]
    )
    @pytest.mark.parametrize("command", ["compare", "train", "explain"])
    def test_damaged_features_csv_rejected(self, tmp_path, mini_pheme_dir, capsys, damage, command):
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["featurize", "--config", str(conf)]) == 0
        if command == "explain":
            assert cli.main(["train", "--config", str(conf)]) == 0
        path = tmp_path / "out" / "t" / report.FEATURES_CSV
        lines = path.read_text().splitlines(keepends=True)
        header, last = lines[0].split(","), lines[-1].split(",")
        if damage == "truncated":
            # a write cut short inside the last record
            lines[-1] = ",".join(last[: len(last) // 2])
            want = f"line {len(lines)}: {len(last) // 2} cells, expected {len(header)}"
        elif damage == "not a number":
            lines[-1] = ",".join(last[:5] + ["n/a"] + last[6:])
            want = f"line {len(lines)}: could not convert string to float: 'n/a'"
        elif damage == "empty":
            # cut short before the header was written
            lines = []
            want = "line 1: no header"
        elif damage == "capitalised role":
            # matched neither population, so the stage wrote header-only tables
            lines[-1] = ",".join(last[:2] + [last[2].capitalize()] + last[3:])
            want = f"line {len(lines)}: role {last[2].capitalize()!r} is neither 'source' nor 'reaction'"
        else:
            # a non-finite value in a cell not flagged absent
            j = next(j for j in range(6, len(last), 2) if last[j].strip() == "false")
            lines[-1] = ",".join(last[: j - 1] + [damage] + last[j:])
            want = f"line {len(lines)}: feature {header[j - 1]!r} holds {damage!r}, which is not finite, but is not flagged absent"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main([command, "--config", str(conf)]) == 1
        assert f"error: ParseError: {path}: {want}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "train", "explain"])
    def test_features_csv_not_utf8_named(self, tmp_path, mini_pheme_dir, capsys, command):
        # the bad byte sits past the text layer's first 8 KiB read-ahead
        # chunk, so its line must be counted in the file, not the chunk
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        for stage in ("ingest", "featurize", "train"):
            assert cli.main([stage, "--config", str(conf)]) == 0
        path = tmp_path / "out" / "t" / report.FEATURES_CSV
        lines = path.read_bytes().count(b"\n")
        assert path.stat().st_size > 8192
        path.write_bytes(path.read_bytes() + b"\xff")
        capsys.readouterr()
        assert cli.main([command, "--config", str(conf)]) == 1
        want = f"error: ParseError: {path}: line {lines + 1}: not UTF-8: invalid start byte\n"
        assert capsys.readouterr().err == want

    def test_run_table_not_utf8_named(self, tmp_path, mini_pheme_dir, capsys):
        conf = write_config(tmp_path, mini_pheme_dir)
        for stage in ("ingest", "featurize", "compare"):
            assert cli.main([stage, "--config", str(conf)]) == 0
        path = tmp_path / "out" / "t" / report.KS_SOURCES_CSV
        path.write_bytes(path.read_bytes().replace(b"WC,parkfire", b"WC,park\xe9", 1))
        capsys.readouterr()
        assert cli.main(["report", "--config", str(conf)]) == 1
        want = f"error: ParseError: {path}: line 3: not UTF-8: invalid continuation byte\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize(
        "damage, want",
        [
            ("not json", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("format 2", "unsupported model format 2"),
            ("no trees", "missing key 'trees'"),
            ("tree feature", "tree 1: feature is not a list"),
            ("config", "config is not an object but list"),
            ("feature names", "feature_names is not a list of strings"),
            ("seed", "seed is 'x', not an integer"),
            ("fold scores", "fold_scores is not a list of numbers"),
            ("config n_trees", "config: n_trees is 'x', not an integer"),
        ],
    )
    def test_damaged_model_file_rejected(self, tmp_path, mini_pheme_dir, capsys, damage, want):
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        for command in ("ingest", "featurize", "train"):
            assert cli.main([command, "--config", str(conf)]) == 0
        path = tmp_path / "out" / "t" / "model_parkfire_reactions.json"
        payload = json.loads(path.read_text())
        edits = {
            "format 2": lambda: payload.update(format_version=2),
            "no trees": lambda: payload.pop("trees"),
            "tree feature": lambda: payload["trees"][1].update(feature=5),
            "config": lambda: payload.update(config=[1]),
            "feature names": lambda: payload.update(feature_names=3),
            "seed": lambda: payload.update(seed="x"),
            "fold scores": lambda: payload.update(fold_scores="x"),
            "config n_trees": lambda: payload["config"].update(n_trees="x"),
        }
        edits.get(damage, lambda: None)()
        path.write_text("{broken" if damage == "not json" else json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["explain", "--config", str(conf)]) == 1
        want = f"error: ParseError: stage 'explain', event 'parkfire', scope 'reactions': {path.name}: {want}\n"
        assert capsys.readouterr().err == want

    def test_model_file_missing_a_median_rejected(self, tmp_path, mini_pheme_dir, capsys):
        # explain stops at the model file with one line naming it, and takes
        # its mark and its files with it
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        assert cli.main(["all", "--config", str(conf)]) == 0
        run = tmp_path / "out" / "t"
        path = run / "model_parkfire_reactions.json"
        payload = json.loads(path.read_text())
        del payload["medians"]["WC"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["explain", "--config", str(conf)]) == 1
        assert capsys.readouterr().err == (
            f"error: ParseError: stage 'explain', event 'parkfire', scope 'reactions': {path.name}: "
            "medians: the median of feature 'WC' is missing\n"
        )
        assert "explain" not in json.loads((run / pipeline.MANIFEST).read_text())["stages"]
        assert not list(run.glob("shap_*"))

    @pytest.mark.parametrize("name", ["manifest.json", "shap_rankings.json"])
    def test_truncated_json_rejected(self, tmp_path, mini_pheme_dir, capsys, name):
        # a JSON run file cut short: the stage reading it names the file
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        for command in ("ingest", "featurize", "compare", "train", "explain"):
            assert cli.main([command, "--config", str(conf)]) == 0
        path = tmp_path / "out" / "t" / name
        path.write_text(path.read_text()[:11])
        capsys.readouterr()
        assert cli.main(["report", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.startswith(f"error: ParseError: {path}: ")

    @pytest.mark.parametrize("manifest", ["[]", "{}", '{"stages": []}', "null"])
    def test_manifest_of_the_wrong_shape_rejected(self, tmp_path, mini_pheme_dir, capsys, manifest):
        # JSON that parses but is not {"stages": {...}}: the stage names the file
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        for command in ("ingest", "featurize", "compare"):
            assert cli.main([command, "--config", str(conf)]) == 0
        path = tmp_path / "out" / "t" / "manifest.json"
        path.write_text(manifest)
        capsys.readouterr()
        assert cli.main(["report", "--config", str(conf)]) == 1
        want = f"error: ParseError: {path}: not an object holding a 'stages' object\n"
        assert capsys.readouterr().err == want

    def test_each_command_prints_every_file_its_stage_wrote(self, tmp_path, mini_pheme_dir, capsys):
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=2, k_folds=3, emotion_provider="none")
        run = tmp_path / "out" / "t"
        printed = {}
        for command in ("ingest", "featurize", "train"):
            assert cli.main([command, "--config", str(conf)]) == 0
            printed[command] = capsys.readouterr().out.splitlines()
        assert printed["ingest"] == [f"wrote {run / 'partitions.csv'}", f"wrote {run / 'run_config.json'}"]
        models = [f"model_{event}_{scope}.json" for event in ("ferrydelay", "parkfire", "statuegift")
                  for scope in ("reactions", "sources")]
        assert printed["train"] == [f"wrote {run / name}" for name in ["metrics.csv", *models]]

    def test_run_config_persisted(self, tmp_path, mini_pheme_dir):
        conf = write_config(tmp_path, mini_pheme_dir)
        cli.main(["ingest", "--config", str(conf), "--seed", "99"])
        persisted = json.loads((tmp_path / "out" / "t" / "run_config.json").read_text())
        assert persisted["seed"] == 99
        assert persisted["dataset"] == str(mini_pheme_dir)

    @pytest.mark.parametrize("layout", ["jsonl", "pheme"])
    def test_corpus_without_events_rejected(self, tmp_path, capsys, layout):
        # an empty JSONL or tree directory stops the run at ingest
        dataset = tmp_path / "corpus"
        if layout == "jsonl":
            dataset.write_text("")
        else:
            dataset.mkdir()
        conf = write_config(tmp_path, dataset, dataset_format=layout, emotion_provider="none")
        assert cli.main(["all", "--config", str(conf)]) == 1
        assert capsys.readouterr().err == f"error: ParseError: {dataset}: no events\n"
        assert not (tmp_path / "out" / "t" / report.PARTITIONS_CSV).exists()

    @pytest.mark.parametrize("event", ["a/b", "a\0b"], ids=["slash", "nul"])
    def test_ingest_rejects_an_event_that_cannot_name_run_files(self, tmp_path, capsys, event):
        dataset = tmp_path / "corpus.jsonl"
        tweet = {"id": "1", "text": "a", "event": event, "role": "source", "label": "rumour"}
        dataset.write_text(json.dumps(tweet) + "\n", encoding="utf-8")
        conf = write_config(tmp_path, dataset, dataset_format="jsonl", emotion_provider="none")
        assert cli.main(["ingest", "--config", str(conf)]) == 1
        want = f"error: ParseError: {dataset}: event {event!r}: a name holding '/' or NUL cannot name run files\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "out" / "t" / report.PARTITIONS_CSV).exists()

    def test_explain_requires_train(self, tmp_path, mini_pheme_dir, capsys):
        conf = write_config(tmp_path, mini_pheme_dir)
        cli.main(["ingest", "--config", str(conf)])
        cli.main(["featurize", "--config", str(conf)])
        assert cli.main(["explain", "--config", str(conf)]) == 1
        assert "MissingArtifact" in capsys.readouterr().err


def _past_read_ahead(head: str, row) -> bytes:
    """`head`, then rows `row(i)` until past the text layer's first 8 KiB
    read-ahead chunk, so a bad byte after them is decoded chunks ahead of
    the line the reader is on."""
    text, i = head, 0
    while len(text) <= 8192:
        text, i = text + row(i), i + 1
    return text.encode()


def _jsonl_row(i):
    reply = {"id": f"r{i}", "text": "a reply", "event": "e", "role": "reaction", "label": "rumour", "parent_id": "s"}
    return json.dumps(reply) + "\n"


_SOURCE_LINE = json.dumps({"id": "s", "text": "a source", "event": "e", "role": "source", "label": "rumour"}) + "\n"

# input kind -> (file name, its bytes, the call that reads it); the bad
# byte is the first 0xe9, and the byte after it is not a continuation byte
BAD_BYTE_INPUTS = {
    "tweet file": ("tree/e/rumours/1/source-tweets/1.json", b'{"id_str": "1",\n "text": "caf\xe9"}\n',
                   lambda path, cfg: load_pheme_tree(path.parents[4])),
    "JSONL": ("corpus.jsonl", _past_read_ahead(_SOURCE_LINE, _jsonl_row) + b'{"id": "x", "text": "caf\xe9"}\n',
              lambda path, cfg: load_jsonl(path)),
    "lexicon JSON": ("lex.json", b'{"categories": {\n  "a": {"patterns": ["caf\xe9"]}}}\n',
                     lambda path, cfg: load_lexicon(path)),
    "emotion lexicon": ("emotions.json", b'{"joy":\n  ["caf\xe9"]}\n', lambda path, cfg: load_emotion_lexicon(path)),
    "sentic table": ("table.csv", _past_read_ahead("concept,pleasantness,attention,sensitivity,aptitude,polarity\n",
                                                   lambda i: f"c{i},0,0,0,0,0\n") + b"caf\xe9,0,0,0,0,0\n",
                     lambda path, cfg: load_sentic_table(path)),
    "word list": ("words.txt", _past_read_ahead("# words\n", lambda i: f"w{i}\n") + b"caf\xe9\n",
                  lambda path, cfg: load_wordlist(path)),
    "lemma exceptions": ("lemmas.tsv", _past_read_ahead("", lambda i: f"f{i}\tl{i}\n") + b"caf\xe9\tcafe\n",
                         lambda path, cfg: load_lemma_exceptions(path)),
    "config": ("run.conf", _past_read_ahead("# config\n", lambda i: f"# {i}\n") + b"dataset = caf\xe9\n",
               lambda path, cfg: parse_config_file(path)),
    "cassette": ("tape.jsonl", _past_read_ahead("", lambda i: json.dumps({"key": f"k{i}", "response": []}) + "\n")
                 + b'{"key": "caf\xe9", "response": []}\n', lambda path, cfg: CassetteProvider(path)),
    "model file": ("out/t/model_parkfire_reactions.json", None, lambda path, cfg: pipeline.stage_explain(cfg)),
    "manifest": ("out/t/manifest.json", b'{"stages":\n  {"caf\xe9": true}}\n', lambda path, cfg: pipeline.stage_ingest(cfg)),
}


class TestDataFileErrors:
    @pytest.mark.parametrize("kind", list(BAD_BYTE_INPUTS))
    def test_byte_not_utf8_named(self, tmp_path, mini_pheme_dir, kind):
        # every input is read through one reader: a byte that is not UTF-8
        # fails naming the file and the line it is on
        name, data, read = BAD_BYTE_INPUTS[kind]
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=2, k_folds=2)
        path = tmp_path / name
        if data is None:  # a model file, damaged after a train wrote it
            for stage in ("ingest", "featurize", "train"):
                assert cli.main([stage, "--config", str(conf)]) == 0
            model = path.read_bytes()
            data = model[: len(model) // 2] + b"\xe9" + model[len(model) // 2 :]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        line = data[: data.index(b"\xe9")].count(b"\n") + 1
        with pytest.raises((ParseError, ConfigError)) as err:
            read(path, build_config(parse_config_file(conf)))
        assert str(err.value) == f"{path}: line {line}: not UTF-8: invalid continuation byte"
        assert err.value.line == line

    @pytest.mark.parametrize(
        "key",
        [
            "lexicon", "sentic_table", "emotion_lexicon_path", "stopwords_path", "easy_words_path",
            "lemma_exceptions_path", "emotion_cassette", "config",
        ],
    )
    def test_file_not_utf8_named(self, tmp_path, mini_pheme_dir, capsys, key):
        # a Latin-1 byte on line 2: an error line naming the file and the
        # line, not a traceback; exit 2 for the config file, 1 for data
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"# first line\ncaf\xe9\n")
        want = f"{bad}: line 2: not UTF-8: invalid continuation byte\n"
        if key == "config":
            assert cli.main(["ingest", "--config", str(bad)]) == 2
            assert capsys.readouterr().err == f"error: config: {want}"
            return
        provider = "cassette" if key == "emotion_cassette" else "fallback"
        conf = write_config(tmp_path, mini_pheme_dir, emotion_provider=provider, **{key: bad})
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        capsys.readouterr()
        assert cli.main(["featurize", "--config", str(conf)]) == 1
        assert capsys.readouterr().err == f"error: ParseError: {want}"

    @pytest.mark.parametrize(
        "key, name, text, want",
        [
            ("lexicon", "lex.json", '{"categories": {"a": {"patterns": []}}}',
             "EmptyCategory: {path}: category 'a' has no patterns"),
            ("lexicon", "lex.json", '{"categories": {', "ParseError: {path}: invalid lexicon JSON: Expecting "),
            ("sentic_table", "table.csv", "concept,pleasantness,attention,sensitivity,aptitude,polarity\ngood,0,0\n",
             "ParseError: {path}: line 2: expected 6 columns, got 3"),
        ],
        ids=["empty category", "truncated lexicon", "short table row"],
    )
    def test_lexicon_and_table_errors_name_the_file(self, tmp_path, mini_pheme_dir, capsys, key, name, text, want):
        path = tmp_path / name
        path.write_text(text)
        conf = write_config(tmp_path, mini_pheme_dir, **{key: path})
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        capsys.readouterr()
        assert cli.main(["featurize", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.startswith("error: " + want.format(path=path))


class TestFullRunVariants:
    def test_no_emotion_provider_marks_section_skipped(self, tmp_path, mini_pheme_dir):
        conf = write_config(
            tmp_path, mini_pheme_dir, emotion_provider="none", n_trees=10, k_folds=3
        )
        assert cli.main(["all", "--config", str(conf)]) == 0
        out = tmp_path / "out" / "t"
        assert not (out / "emotions.csv").exists()
        assert "skipped: no emotion provider" in (out / "report.md").read_text()
        header = (out / "features.csv").read_text().splitlines()[0]
        assert "anger" not in header

    def test_emotion_table_goes_with_its_provider(self, tmp_path, mini_pheme_dir):
        # a fallback run, then featurize, compare and report with no
        # provider: compare removes the emotion table of the earlier run
        conf = write_config(tmp_path, mini_pheme_dir, n_trees=3, k_folds=2)
        assert cli.main(["all", "--config", str(conf)]) == 0
        out = tmp_path / "out" / "t"
        assert (out / "emotions.csv").exists()
        conf = write_config(tmp_path, mini_pheme_dir, emotion_provider="none", n_trees=3, k_folds=2)
        for command in ("featurize", "compare", "report"):
            assert cli.main([command, "--config", str(conf)]) == 0
        assert not (out / "emotions.csv").exists()
        text = (out / "report.md").read_text()
        assert "_skipped: no emotion provider_" in text
        assert "| emotion |" not in text

    def test_scope_sources_only(self, tmp_path, mini_pheme_dir):
        conf = write_config(tmp_path, mini_pheme_dir, scope="sources", n_trees=10, k_folds=3)
        assert cli.main(["all", "--config", str(conf)]) == 0
        out = tmp_path / "out" / "t"
        assert (out / "model_parkfire_sources.json").exists()
        assert not (out / "model_parkfire_reactions.json").exists()
        metrics = report.read_csv_rows(out / "metrics.csv")
        assert {r["scope"] for r in metrics} == {"sources"}
