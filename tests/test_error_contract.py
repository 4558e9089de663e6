"""Property tests: malformed inputs end as one documented diagnostic.

A valid config document, weights file and wav file are mutated and fed to
the command line, and so are the flags of every subcommand. Whatever the
mutation, the exit code is one the CLI documents for that input, and stderr
is either empty (exit 0, bar the status line of an ``enhance`` or a
``gen-weights``, which goes to stderr) or exactly one
``error: <category>: <message>`` line whose category matches the code.
Every warning counts as shown on stderr, so a warning breaks the
one-line rule, and lines are counted by ``str.splitlines``, so a path or a
tensor name holding any line break it knows must not split a line. A flags
run also writes no file but the command's output, and never the command's
own config or weights. Beside the command line, configs built field by
field, some field holding a value of another type, are either refused at
construction or save and load back equal.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsrnnlite import BandConfig, ConfigError, LwrStrategy, ModelConfig, SbpStrategy, StftConfig
from bsrnnlite import analyze, canonical_config, cli, gen_weights, load_config, save_config
from bsrnnlite import save_weights, wavio
from bsrnnlite.configio import config_to_dict
from bsrnnlite.weights_io import ALIGNMENT

from util import tiny_config

CATEGORY = {cli.EXIT_AUDIO: "audio", cli.EXIT_WEIGHTS: "weights", cli.EXIT_CONFIG: "config",
            cli.EXIT_IO: "io", cli.EXIT_USAGE: "usage"}

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

CONFIG = tiny_config(resample=LwrStrategy.sync(2, target_layers=(1,)),
                     prune=SbpStrategy.aggressive(1))
CONFIG_DOC = config_to_dict(CONFIG)
CONFIG_RAW = json.dumps(CONFIG_DOC).encode()
WEIGHTS = gen_weights(CONFIG, seed=0)
WAV_HEADER = 44  # RIFF, fmt and data chunk headers of a plain pcm16 file
LINE_BREAKS = ("\n", "\r", "\u2028")  # str.splitlines splits at each


def _paths(doc, prefix=()):
    """Every key path into ``doc``, plus one new key per object."""
    if isinstance(doc, dict):
        yield prefix + ("extra",)
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(-40, 40, allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _mutate(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, added or deleted."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        if isinstance(node, dict):
            node.pop(last, None)
        else:
            del node[last]
    else:
        node[last] = value
    return doc


def _edited(raw: bytes, edits, cut) -> bytes:
    data = bytearray(raw)
    for pos, byte in edits:
        data[pos] = byte
    return bytes(data if cut is None else data[:cut])


def _run(argv):
    """Exit code and stderr of one CLI call, every warning shown on stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, err.getvalue() + "".join(shown)


def _assert_contract(code, stderr, allowed):
    assert code in allowed, stderr
    lines = stderr.splitlines()
    if code == cli.EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1, stderr
        assert lines[0].startswith(f"error: {CATEGORY[code]}: "), stderr


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "config.json").write_bytes(CONFIG_RAW)
    save_weights(root / "weights.bsrw", WEIGHTS)
    noise = np.random.default_rng(5).standard_normal(400).astype(np.float32) * 0.1
    wavio.write_wav(root / "noisy.wav", noise, CONFIG.stft.sample_rate, wavio.PCM16)
    return root


def _enhance(root, weights="weights.bsrw", wav="noisy.wav"):
    """``_run`` of one ``enhance``, less the status line that a success prints on stderr."""
    code, stderr = _run(["enhance", "--config", str(root / "config.json"),
                         "--weights", str(root / weights), "--in", str(root / wav),
                         "--out", str(root / "out.wav")])
    if code == cli.EXIT_OK:
        status = f"{root / 'out.wav'}: ok\n"
        assert stderr.startswith(status), stderr
        stderr = stderr[len(status):]
    return code, stderr


def test_valid_inputs_enhance(files):
    _assert_contract(*_enhance(files), {cli.EXIT_OK})


@PROPERTY
@given(path=st.sampled_from(sorted(_paths(CONFIG_DOC), key=repr)),
       value=st.just(DELETE) | JSON_VALUES)
@example(path=("lrw",), value={"kind": "async", "factor": 16})
@example(path=("time_rnn_causal",), value="no")
@example(path=("group_size",), value="2")
@example(path=("lwr", "target_layers", 0), value="a")
def test_mutated_config_document(files, path, value):
    (files / "mutated.json").write_text(json.dumps(_mutate(CONFIG_DOC, path, value)))
    code, stderr = _run(["analyze", "--config", str(files / "mutated.json")])
    _assert_contract(code, stderr, {cli.EXIT_OK, cli.EXIT_CONFIG})


@PROPERTY
@given(edits=st.lists(st.tuples(st.integers(0, len(CONFIG_RAW) - 1), st.integers(0, 255)),
                      max_size=3),
       cut=st.none() | st.integers(0, len(CONFIG_RAW)),
       prefix=st.binary(max_size=3))
@example(edits=[(0, 0xFF)], cut=None, prefix=b"")  # not UTF-8: UnicodeDecodeError
@example(edits=[], cut=0, prefix=b"[" * 100_000)  # nested past the parser's depth: RecursionError
def test_mutated_config_file(files, edits, cut, prefix):
    (files / "mutated.json").write_bytes(prefix + _edited(CONFIG_RAW, edits, cut))
    code, stderr = _run(["analyze", "--config", str(files / "mutated.json")])
    _assert_contract(code, stderr, {cli.EXIT_OK, cli.EXIT_CONFIG})


def _poisoned(raw: bytes, name: str, value: float) -> bytes:
    """``raw`` with the first value of tensor ``name`` overwritten."""
    header_len = int(np.frombuffer(raw[8:16], np.uint64)[0])
    payload = -(-(16 + header_len) // ALIGNMENT) * ALIGNMENT
    pos = payload + json.loads(raw[16 : 16 + header_len])["tensors"][name]["offset"]
    return raw[:pos] + np.float32(value).tobytes() + raw[pos + 4 :]


def _renamed(root, name: str, line_break: str) -> bytes:
    """A weights file with tensor ``name`` stored, in its place, as ``evil<line_break>name``."""
    path = root / "renamed.bsrw"
    save_weights(path, {f"evil{line_break}name" if key == name else key: value
                        for key, value in WEIGHTS.items()})
    return path.read_bytes()


FIRST = next(iter(WEIGHTS))  # the first tensor in the manifest
with tempfile.TemporaryDirectory() as _tmp:
    #: where the first tensor's dtype, ``"f32"``, holds its "3" once that tensor is renamed
    RENAMED_DTYPE = _renamed(Path(_tmp), FIRST, "\n").index(b'"f32"') + 2


@PROPERTY
@given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=3),
       cut=st.none() | st.integers(0, 400),
       poison=st.none() | st.tuples(st.sampled_from(sorted(WEIGHTS)),
                                    st.sampled_from([np.nan, np.inf, -np.inf])),
       appended=st.binary(max_size=65),
       renamed=st.none() | st.tuples(st.sampled_from(sorted(WEIGHTS)), st.sampled_from(LINE_BREAKS)))
@example(edits=[], cut=None, poison=("band_split.band00.norm.gamma", np.nan), appended=b"",
         renamed=None)
@example(edits=[], cut=None, poison=None, appended=b"\0", renamed=None)  # loaded without a word
@example(edits=[(RENAMED_DTYPE, ord("6"))], cut=None, poison=None, appended=b"",
         renamed=(FIRST, "\n"))  # "f62", reported with the name: two lines
def test_mutated_weights_file(files, edits, cut, poison, appended, renamed):
    raw = (files / "weights.bsrw").read_bytes() if renamed is None else _renamed(files, *renamed)
    if poison is not None and (renamed is None or poison[0] != renamed[0]):
        raw = _poisoned(raw, *poison)
    (files / "mutated.bsrw").write_bytes(_edited(raw, edits, cut) + appended)
    code, stderr = _enhance(files, weights="mutated.bsrw")
    _assert_contract(code, stderr, {cli.EXIT_OK, cli.EXIT_WEIGHTS})
    if poison is not None or renamed is not None or appended and cut is None:
        assert code == cli.EXIT_WEIGHTS


def test_deeply_nested_weights_header(files):
    header = b"[" * 100_000
    raw = (files / "weights.bsrw").read_bytes()[:8] + np.uint64(len(header)).tobytes() + header
    (files / "mutated.bsrw").write_bytes(raw)
    code, stderr = _enhance(files, weights="mutated.bsrw")
    _assert_contract(code, stderr, {cli.EXIT_WEIGHTS})


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "canonical-v1", "--duration", "1e300"],
    ["analyze", "--config", "canonical-v1", "--duration", "1e305"],  # the sample count is inf
    ["table", "--duration", "1e300"],
    ["analyze", "--config", "huge.json"],
], ids=" ".join)
def test_totals_past_int64(files, argv):
    # each was an internal OverflowError: a MAC total or sample count that a float cannot hold
    (files / "huge.json").write_text(json.dumps({**CONFIG_DOC, "feature_dim": 10**160,
                                                 "hidden_dim": 10**160}))
    argv = [str(files / arg) if arg.endswith(".json") else arg for arg in argv]
    _assert_contract(*_run(argv), {cli.EXIT_CONFIG})


@PROPERTY
@given(edits=st.lists(st.tuples(st.integers(0, WAV_HEADER - 1), st.integers(0, 255)), max_size=3),
       cut=st.none() | st.integers(0, 900))
@example(edits=[(36, ord("x"))], cut=None)  # no data chunk: scipy's UnboundLocalError
@example(edits=[], cut=30)  # inside the fmt chunk: struct.error
@example(edits=[], cut=40)  # inside the data chunk header: struct.error
@example(edits=[], cut=WAV_HEADER + 101)  # short data chunk: scipy warned and read short
def test_mutated_wav_file(files, edits, cut):
    raw = (files / "noisy.wav").read_bytes()
    mutated = _edited(raw, edits, cut)
    (files / "mutated.wav").write_bytes(mutated)
    code, stderr = _enhance(files, wav="mutated.wav")
    _assert_contract(code, stderr, {cli.EXIT_OK, cli.EXIT_AUDIO})
    if not edits and cut is not None and cut < len(raw):
        assert code == cli.EXIT_AUDIO


ODD = ("nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e300", "-1", "abc", "")
PATHS = ("missing", "dir", "empty", "notes.txt", "config.json", "weights.bsrw", "noisy.wav",
         *(f"line{line_break}break" for line_break in LINE_BREAKS))
SWITCH = None
#: each subcommand's flags: a switch, or a valid value and the values a flag draws beside it.
#: Accepted work stays tiny: ``bench`` runs at most 2 x 0.05 s, and ``calibrate`` a grid no
#: larger than its default (a dim_min below 8 or a step below 2 is refused or never drawn).
FLAGS = {
    "enhance": {"--config": ("config.json", PATHS), "--weights": ("weights.bsrw", PATHS),
                "--in": ("noisy.wav", PATHS), "--out": ("out.wav", PATHS),
                "--oa": ("0.5", (*ODD, "1", "2"))},
    "analyze": {"--config": ("config.json", PATHS), "--duration": ("1.0", (*ODD, "1", "2", "3")),
                "--json": SWITCH, "--csv": SWITCH},
    "table": {"--base": ("config.json", PATHS), "--variants": ("dir", PATHS),
              "--extended": SWITCH, "--duration": ("1.0", (*ODD, "1", "2", "3")),
              "--json": SWITCH, "--csv": SWITCH},
    "gen-weights": {"--config": ("config.json", PATHS), "--seed": ("0", (*ODD, "1", "2", "3")),
                    "--output": ("out.bsrw", PATHS)},
    "bench": {"--config": ("config.json", PATHS), "--weights": ("weights.bsrw", PATHS),
              "--seconds": ("0.05", ODD), "--runs": ("1", (*ODD, "2"))},
    "calibrate": {"--target-base": ("1.84", (*ODD, "1", "2", "3")),
                  "--target-grouped": ("1.09", (*ODD, "1", "2", "3")),
                  "--group": ("2", (*ODD, "1", "3")), "--dim-min": ("8", (*ODD, "9", "10")),
                  "--dim-max": ("240", (*ODD, "1", "2", "3")), "--step": ("2", (*ODD, "3")),
                  "--top": ("5", (*ODD, "1", "2", "3"))},
}
KEPT = {"--seconds", "--runs"}  # bench's defaults, 3 x 10 s, are not tiny
OUTPUT = {"--out", "--output"}


@st.composite
def _command_lines(draw):
    """A subcommand and a subset of its flags, each value as ``--flag=value`` or ``--flag value``.

    An output flag (drawn last) also draws from the values of the path flags before it."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv, paths = [command], []
    for flag, values in FLAGS[command].items():
        kept = command == "bench" and flag in KEPT
        if not (kept or draw(st.integers(0, 3))):  # a flag is left out one time in four
            continue
        if values is SWITCH:
            argv.append(flag)
        else:
            valid, pool = values
            value = draw(st.just(valid) | st.sampled_from(pool)
                         | (st.sampled_from(paths) if flag in OUTPUT and paths else st.nothing()))
            if pool is PATHS:
                paths.append(value)
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    return argv


def _values(argv, flags):
    """The values that the given flags take in ``argv``."""
    for i, arg in enumerate(argv):
        flag, eq, value = arg.partition("=")
        if flag in flags and (eq or i + 1 < len(argv)):
            yield value if eq else argv[i + 1]


@settings(PROPERTY, max_examples=200)
@given(argv=_command_lines())
@example(argv=["analyze"])  # argparse printed its usage block: three lines
@example(argv=["bench", "--config", "config.json", "--seconds", "0.05", "--runs", "1.5"])
@example(argv=["bench", "--config", "config.json", "--seconds=0.05", "--runs=2"])
@example(argv=["calibrate", "--dim-min", "nan"])
@example(argv=["table", "--variants", "dir", "--extended"])
@example(argv=["analyze", "--config", "config.json", "--duration", "-1e3"])  # read as an option
@example(argv=["enhance", "--config", "config.json", "--weights", "weights.bsrw",
               "--in", "noisy.wav", "--out", "weights.bsrw"])  # wrote a wav over the weights
@example(argv=["gen-weights", "--config", "config.json", "--output", "config.json"])
@example(argv=["table", "--variants", "line\nbreak"])  # the message held the line break
@example(argv=["gen-weights", "--config", "config.json", "--output", "line\u2028break"])
@example(argv=["enhance", "--config", "config.json", "--weights", "weights.bsrw",
               "--in", "noisy.wav", "--out", "line\rbreak"])  # the status line held it
def test_flags(files, argv):
    # no file but the command's output is ever written, and never its config or weights
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("config.json", "weights.bsrw", "noisy.wav"):
            shutil.copy(files / name, root)
        (root / "dir").mkdir()
        (root / "empty").touch()
        (root / "notes.txt").write_text("not a wav file\n")
        before = {path: path.read_bytes() for path in root.iterdir() if path.is_file()}
        cwd = os.getcwd()
        os.chdir(root)  # the drawn paths are relative
        try:
            code, stderr = _run(argv)
        finally:
            os.chdir(cwd)
        written = {path for path, data in before.items() if path.read_bytes() != data}
        written |= set(root.iterdir()) - set(before) - {root / "dir"}  # no temporary file is left
        inputs = {root / value for value in _values(argv, {"--config", "--weights"})}
        assert written <= {root / value for value in _values(argv, OUTPUT)} - inputs, argv
    if code == cli.EXIT_OK and argv[0] in ("enhance", "gen-weights"):
        status, _, stderr = stderr.partition("\n")  # the output path on one line
        output = " ".join(cli.build_parser().parse_args(argv).output.split())
        assert status.startswith(f"{output}: "), status
    _assert_contract(code, stderr, set(CATEGORY) | {cli.EXIT_OK})


def _tuples(value):
    """``value`` with every list made a tuple, at any depth."""
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _recipe(**fields):
    """ModelConfig's keyword arguments as plain values: canonical-v1's, ``fields`` replaced.
    The STFT and the strategies are dicts of their fields, and the bands lists of bounds."""
    return {"stft": {"sample_rate": 16000, "fft_size": 512, "hop_size": 256},
            "bands": [list(pair) for pair in canonical_config().bands.boundaries],
            "feature_dim": 126, "hidden_dim": 72, "num_layers": 6, "group_size": 1,
            "resample": {"kind": "none"}, "prune": {"kind": "none"}, "time_rnn_causal": True,
            "band_rnn_bidirectional": True, "mask_hidden_ratio": 4, "name": "canonical-v1",
            **fields}


def _config_from(recipe) -> ModelConfig:
    """The config a recipe describes; a field holding an odd value is passed on as it is."""
    fields = _tuples(recipe)
    for key, cls in (("stft", StftConfig), ("resample", LwrStrategy), ("prune", SbpStrategy)):
        if isinstance(fields[key], dict):
            fields[key] = cls(**fields[key])
    if isinstance(fields["bands"], tuple):
        fields["bands"] = BandConfig(fields["bands"])
    return ModelConfig(**fields)


@st.composite
def _recipes(draw):
    """A recipe from the presets' dims, the six strategies, group sizes, both flags and odd
    names; one time in three, one field at any depth then holds an odd value."""
    resample = {"kind": draw(st.sampled_from(("none", "pps", "all", "sync", "async"))),
                "factor": draw(st.sampled_from((1, 2, 4, 16)))}
    if resample["kind"] == "sync" and draw(st.booleans()):
        resample["target_layers"] = draw(st.lists(st.integers(1, 7), max_size=3))
    prune = {"kind": draw(st.sampled_from(("none", "aggressive", "progressive")))}
    if prune["kind"] == "aggressive" and draw(st.booleans()):
        prune["skip_bands"] = draw(st.integers(0, 23))
    recipe = _recipe(
        feature_dim=draw(st.sampled_from((126, 72))), hidden_dim=draw(st.sampled_from((72, 126))),
        num_layers=draw(st.integers(0, 6)), group_size=draw(st.integers(1, 4)),
        resample=resample, prune=prune, time_rnn_causal=draw(st.booleans()),
        band_rnn_bidirectional=draw(st.booleans()), mask_hidden_ratio=draw(st.integers(1, 4)),
        name=draw(st.text(max_size=8)))
    if draw(st.integers(0, 2)):
        return recipe
    path = draw(st.sampled_from(sorted((p for p in _paths(recipe) if p[-1] != "extra"), key=repr)))
    value = recipe
    for key in path:
        value = value[key]
    same = (float(value), np.int64(value)) if type(value) is int else ()
    return _mutate(recipe, path, draw(st.sampled_from((True, 1.0, np.int64(2), "x", *same))))


@settings(PROPERTY, max_examples=300)
@given(recipe=_recipes())
# each constructed, and then save_config wrote a file that load_config refused ...
@example(recipe=_recipe(mask_hidden_ratio=True))
@example(recipe=_recipe(group_size=True))
@example(recipe=_recipe(feature_dim=126.0))
@example(recipe=_recipe(time_rnn_causal=1))
@example(recipe=_recipe(band_rnn_bidirectional="yes"))
@example(recipe=_recipe(name=5))
@example(recipe=_mutate(_recipe(), ("stft", "hop_size"), True))
@example(recipe=_mutate(_recipe(), ("stft", "sample_rate"), 16000.0))
@example(recipe=_recipe(bands=[[0, True], [True, 257]]))
# ... or save_config raised TypeError
@example(recipe=_recipe(num_layers=np.int64(6)))
@example(recipe=_recipe(bands=[[np.int64(a), np.int64(b)] for a, b in _recipe()["bands"]]))
def test_config_is_refused_or_saves_and_loads_back(recipe):
    try:
        config = _config_from(recipe)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        save_config(config, Path(tmp) / "config.json")
        back = load_config(Path(tmp) / "config.json")
    assert back == config and analyze(back) == analyze(config)


@pytest.mark.parametrize("seed", [-1, 2**70])  # the tensors of seed 2**64 - 1 and of seed 0
def test_seed_outside_the_stream_refused(files, seed, tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        gen_weights(CONFIG, seed)
    out = tmp_path / "out.bsrw"
    _assert_contract(*_run(["gen-weights", "--config", str(files / "config.json"),
                            f"--seed={seed}", "--output", str(out)]), {cli.EXIT_CONFIG})
    assert not out.exists()
