"""Top-level acceptance checks, one test per criterion.

Each test records a single PASS/FAIL line (echoed in the terminal
summary) before asserting, so a red run still reports every verdict.
"""

import functools
import time

import numpy as np
import pytest

from bsrnnlite import (
    BandConfig,
    LwrStrategy,
    SbpStrategy,
    StftConfig,
    analyze,
    build,
    canonical_chain,
    canonical_config,
    count_forward,
    enhance,
    forward_features,
    gen_weights,
    istft,
    prune_schedule,
    stft,
    wavio,
)
from bsrnnlite.cli import EXIT_OK, main
from bsrnnlite.macs import analyze_frames
from bsrnnlite.model import ModelConfig
from bsrnnlite.rnn import LstmWeights, lstm_forward_batch

import conftest
from reference import naive_lstm_forward
from util import lstm_forward, one_cell, rearrange


def _verdict(num, ok, detail):
    conftest.record_criterion(num, ok, detail)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_layout(rng, num_bins, k):
    cuts = sorted(rng.choice(np.arange(1, num_bins), size=k - 1, replace=False).tolist())
    edges = [0, *cuts, num_bins]
    return BandConfig(tuple((edges[i], edges[i + 1]) for i in range(k)))


@functools.lru_cache(maxsize=1)
def _fuzz_configs():
    """Deterministic fuzz set spanning bands 2..23, layers 1..6,
    resample factors {1, 4, 16}, group sizes {1, 2}, skip counts 0..6."""
    rng = np.random.default_rng(20260823)
    s = StftConfig(sample_rate=8000, fft_size=64, hop_size=16)  # 33 bins
    lwr_corners = [
        LwrStrategy.none(),
        LwrStrategy.pps(4),
        LwrStrategy.all_layers(4),
        LwrStrategy.sync(4),
        LwrStrategy.alternating(4),
        LwrStrategy.alternating(16),
        LwrStrategy.pps(16),
        LwrStrategy.all_layers(1),
    ]
    configs = []
    forced = [(2, 1), (2, 6), (23, 6), (23, 1), (12, 3), (7, 6), (17, 2), (23, 4)]
    for i in range(27):
        k, layers = forced[i] if i < len(forced) else (
            int(rng.integers(2, 24)), int(rng.integers(1, 7)))
        if i < len(lwr_corners):
            lwr = lwr_corners[i]
        else:
            kind = rng.choice(["none", "pps", "all", "sync", "async"])
            factor = int(rng.choice([1, 4, 16]))
            lwr = LwrStrategy(kind, factor) if kind != "none" else LwrStrategy.none()
        g = 2 if i % 3 == 0 else 1
        roll = int(rng.integers(3))
        if roll == 1:
            sbp = SbpStrategy.aggressive(int(rng.integers(0, min(7, k))))
        elif roll == 2 and k > layers:
            sbp = SbpStrategy.progressive()
        else:
            sbp = SbpStrategy.none()
        configs.append(ModelConfig(
            stft=s, bands=_random_layout(rng, s.frequency_bins, k),
            feature_dim=6, hidden_dim=4, num_layers=layers,
            group_size=g, resample=lwr, prune=sbp, name=f"fuzz{i:02d}",
        ))
    return configs


@functools.lru_cache(maxsize=1)
def _chain_reports():
    base, variants = canonical_chain(extended=True)
    reports = {"BSRNN": analyze(base)}
    reports.update((name, analyze(cfg)) for name, cfg in variants)
    return reports


@pytest.fixture(scope="module")
def canonical_model():
    cfg = canonical_config()
    return cfg, build(cfg, gen_weights(cfg, seed=0))


@pytest.fixture(scope="module")
def two_second_noise():
    rng = np.random.default_rng(11)
    return (rng.standard_normal(32000) * 0.1).astype(np.float32)


def test_c1_macs_counter_agreement():
    """Closed-form analysis equals the priced forward pass, integer
    for integer, on 27 fuzzed configurations covering every strategy."""
    start = time.perf_counter()
    duration = 0.2
    checked = 0
    for i, cfg in enumerate(_fuzz_configs()):
        model = build(cfg, gen_weights(cfg, seed=i))
        rng = np.random.default_rng(100 + i)
        noise = (rng.standard_normal(int(duration * cfg.stft.sample_rate)) * 0.1
                 ).astype(np.float32)
        expect = analyze(cfg, duration)
        got = count_forward(model, noise)
        assert got.components == expect.components, cfg.name
        assert got.total == expect.total and isinstance(got.total, int)
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(1, checked >= 25 and elapsed < 60.0,
             f"analyze == count_forward on {checked} fuzzed configs "
             f"in {elapsed:.1f} s")


def test_c2_cost_chain_reproduction():
    reports = _chain_reports()
    targets = {"BSRNN": 1.84, "+GR": 1.09, "+LWR-ASYNC(16)": 1.03,
               "++SBP-P": 0.99, "+++GR": 0.62}
    residuals = {name: abs(reports[name].gps - t) for name, t in targets.items()}
    chain_ok = all(r <= 0.05 for r in residuals.values())
    all4, pps4 = reports["+LWR-ALL(4)"].gps, reports["+LWR-PPS(4)"].gps
    pair_ok = abs(all4 - pps4) <= 0.02 and abs(all4 - 0.55) <= 0.05
    sync_exact = reports["+LWR-SYNC(4)"].total == reports["+LWR-ASYNC(4)"].total
    worst = max(residuals, key=residuals.get)
    _verdict(2, chain_ok and pair_ok and sync_exact,
             f"chain within +/-0.05 (worst {worst} {residuals[worst]:.4f}), "
             f"|ALL(4)-PPS(4)| = {abs(all4 - pps4):.4f}, SYNC(4) == ASYNC(4) "
             f"{'exactly' if sync_exact else 'MISMATCH'}")


def test_c3_end_to_end_reduction():
    reports = _chain_reports()
    ratio = reports["+++GR"].gps / reports["BSRNN"].gps
    _verdict(3, ratio <= 0.34,
             f"final/base cost ratio {ratio:.4f} <= 0.34 "
             f"({100 * (1 - ratio):.1f}% reduction)")


def test_c4_alternating_reduction_bound():
    """Resampling one RNN per layer can never halve the RNN cost."""

    def rnn_total(cfg, frames):
        comps = analyze_frames(cfg, frames)
        return sum(v for k, v in comps.items()
                   if k.startswith(("band_rnn", "time_rnn")))

    cases = []
    for cfg in _fuzz_configs():
        if cfg.resample.kind == "async":
            cases.append((cfg, 101))
    base_cfg = canonical_config()
    for layers in range(1, 7):
        for factor in (2, 4, 16, 64):
            cfg = ModelConfig(
                stft=base_cfg.stft, bands=base_cfg.bands,
                feature_dim=base_cfg.feature_dim, hidden_dim=base_cfg.hidden_dim,
                num_layers=layers, resample=LwrStrategy.alternating(factor))
            cases.append((cfg, 63))
    worst = 0.0
    for cfg, frames in cases:
        plain = cfg.with_resample(LwrStrategy.none())
        reduction = 1.0 - rnn_total(cfg, frames) / rnn_total(plain, frames)
        worst = max(worst, reduction)
        assert reduction < 0.5, cfg.name
    _verdict(4, worst < 0.5,
             f"RNN reduction < 50% for all {len(cases)} alternating configs "
             f"(max observed {100 * worst:.1f}%)")


def test_c5_pruning_savings_ratio():
    """Skipping 6 bands every layer vs 1..6 bands progressively saves
    time-RNN work in the exact band-layer count ratio 36:21."""
    frames = 63

    def time_total(cfg):
        comps = analyze_frames(cfg, frames)
        return sum(v for k, v in comps.items() if k.startswith("time_rnn"))

    base = canonical_config()
    full = time_total(base)
    saved_a = full - time_total(base.with_prune(SbpStrategy.aggressive(6)))
    saved_p = full - time_total(base.with_prune(SbpStrategy.progressive()))
    _verdict(5, saved_a * 21 == saved_p * 36 and saved_a > 0,
             f"aggressive/progressive time-RNN savings {saved_a}/{saved_p} "
             f"== 36/21 exactly")


def test_c6_degenerate_toggles_match_baseline(canonical_model, two_second_noise):
    cfg, model = canonical_model
    start = time.perf_counter()
    base_out = enhance(model, two_second_noise)
    base_norm = float(np.linalg.norm(base_out))

    arrays = gen_weights(cfg, seed=0)  # the fixture model's weights
    worst_rel = 0.0
    for lwr in (LwrStrategy.pps(1), LwrStrategy.all_layers(1),
                LwrStrategy.sync(1), LwrStrategy.alternating(1)):
        variant = build(cfg.with_resample(lwr), arrays)
        out = enhance(variant, two_second_noise)
        worst_rel = max(worst_rel, float(np.linalg.norm(out - base_out)) / base_norm)

    skip0 = build(cfg.with_prune(SbpStrategy.aggressive(0)), arrays)
    skip0_bitwise = enhance(skip0, two_second_noise).tobytes() == base_out.tobytes()

    # one-group, two-direction stacked kernel against one kernel call per
    # cell, composed by hand, real weights
    cells = model.weights.band_layers[0].cells
    rng = np.random.default_rng(5)
    x = rng.standard_normal((63, 126))
    fwd = lstm_forward_batch(x[None], one_cell(cells, 0))[0]
    bwd = lstm_forward_batch(x[::-1][None], one_cell(cells, 1))[0][::-1]
    plain = np.concatenate([fwd, bwd], axis=1)
    g1_bitwise = lstm_forward(x, cells).tobytes() == plain.tobytes()

    elapsed = time.perf_counter() - start
    _verdict(6, worst_rel <= 1e-6 and skip0_bitwise and g1_bitwise and elapsed < 60.0,
             f"factor-1 resampling rel err {worst_rel:.2e} <= 1e-06, "
             f"skip-0 pruning and one-group kernel bitwise, {elapsed:.1f} s")


def test_c7_kernel_oracles():
    """LSTM vs a scalar reference, rearrange inverses, STFT round trip.

    The de-shuffle of a two-group rearrange is another rearrange by C/2
    groups; the two coincide (involution) exactly when C is the square of
    the group count, so the involution check uses four-channel vectors and
    random even widths exercise the general inverse pair.
    """
    rng = np.random.default_rng(77)

    worst_lstm = 0.0
    for _ in range(100):
        i_dim = int(rng.integers(1, 7))
        h_dim = int(rng.integers(1, 6))
        t = int(rng.integers(1, 8))
        w_input = rng.standard_normal((4 * h_dim, i_dim)) * 0.4
        w_hidden = rng.standard_normal((4 * h_dim, h_dim)) * 0.4
        bias = rng.standard_normal(4 * h_dim) * 0.4
        seq = rng.standard_normal((t, i_dim))
        bidi = bool(rng.integers(2))
        cells = LstmWeights(*(np.stack([a] * (2 if bidi else 1)) for a in (w_input, w_hidden, bias)))
        got = lstm_forward(seq, cells)
        want = naive_lstm_forward(seq, w_input, w_hidden, bias, bidirectional=bidi)
        worst_lstm = max(worst_lstm, float(np.max(np.abs(got - want))))
    lstm_ok = worst_lstm <= 1e-6

    involution_ok = all(
        np.array_equal(rearrange(rearrange(v, 2), 2), v)
        for v in rng.standard_normal((1000, 4))
    )
    inverse_ok = all(
        np.array_equal(rearrange(rearrange(v, 2), c // 2), v)
        for c in (6, 8, 10, 12, 26)
        for v in [rng.standard_normal(c)]
    )

    worst_stft = 0.0
    for n, s in (
        (16000, StftConfig()),
        (7919, StftConfig()),
        (1600, StftConfig(sample_rate=8000, fft_size=64, hop_size=16)),
    ):
        x = rng.standard_normal(n).astype(np.float32)
        back = istft(stft(x, s), s, n)
        worst_stft = max(worst_stft,
                         float(np.linalg.norm(back - x) / np.linalg.norm(x)))
    stft_ok = worst_stft <= 1e-6

    _verdict(7, lstm_ok and involution_ok and inverse_ok and stft_ok,
             f"LSTM max err {worst_lstm:.2e}, rearrange inverses exact, "
             f"STFT round-trip rel err {worst_stft:.2e}")


def test_c8_pruned_bands_pass_through_unchanged(canonical_model):
    cfg, _ = canonical_model
    pruned_cfg = cfg.with_prune(SbpStrategy.progressive())
    model = build(pruned_cfg, gen_weights(pruned_cfg, seed=0))
    k = cfg.num_bands
    schedule = prune_schedule(pruned_cfg.prune, cfg.num_layers, k)

    captured = {}

    def probe(stage, layer, array):
        if stage in ("time_in", "time_out"):
            captured[(stage, layer)] = array.copy()

    rng = np.random.default_rng(3)
    forward_features(model, rng.standard_normal((k, 63, cfg.feature_dim)), probe=probe)

    blocks = 0
    for layer in range(1, cfg.num_layers + 1):
        skip = schedule[layer - 1]
        before = captured[("time_in", layer)][k - skip:]
        after = captured[("time_out", layer)][k - skip:]
        assert after.tobytes() == before.tobytes(), f"layer {layer}"
        blocks += skip
    _verdict(8, blocks == 21,
             f"all {blocks} skipped band-layer blocks bitwise unchanged "
             f"across their time-RNN sublayer")


def test_c9_command_line_smoke(tmp_path):
    rate = 16000
    rng = np.random.default_rng(9)
    noisy = (rng.standard_normal(10 * rate) * 0.1).astype(np.float32)
    wav_in = tmp_path / "in.wav"
    wav_out = tmp_path / "out.wav"
    weights = tmp_path / "w.bsrw"
    wavio.write_wav(wav_in, noisy, rate, "float32")
    assert main(["gen-weights", "--config", "canonical-v1",
                 "--output", str(weights)]) == EXIT_OK
    start = time.perf_counter()
    code = main(["enhance", "--config", "canonical-v1", "--weights", str(weights),
                 "--input", str(wav_in), "--output", str(wav_out)])
    elapsed = time.perf_counter() - start
    out, out_rate, _ = wavio.read_wav(wav_out)
    ok = (code == EXIT_OK and elapsed < 30.0 and out_rate == rate
          and out.shape == noisy.shape and bool(np.all(np.isfinite(out))))
    _verdict(9, ok,
             f"10 s enhancement in {elapsed:.1f} s < 30 s, "
             f"output length-preserving and finite")
