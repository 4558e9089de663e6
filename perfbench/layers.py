"""Per-layer metrics derived from a traced run.

Normalisation: ``_ms`` and ``calls``/``steps`` metrics are per unit of
work, which is one audio second on the enhancement workloads and one audit
pass on ``cost_audit``. ``model.build_ms``, ``weights_io.load_ms`` and
``configio.load_ms`` are set-up steps and are given per call instead.

Time kinds: ``model.*_ms`` are inclusive stage times (the model's own
spans hold nothing but calls into other modules). Every other ``_ms`` is
self time: the span's duration minus its traced children. ``_gmacs`` is
analyzed MACs over the stage's inclusive (busy) time.
"""

from __future__ import annotations

LAYERS = 6  # sublayer metrics cover the canonical stack depth

#: (name, unit) in report order; BENCHMARK.json's per_layer list matches it
PER_LAYER = (
    [("rnn.lstm_ms", "ms"), ("rnn.lstm_calls", "count"), ("rnn.lstm_steps", "count"),
     ("rnn.step_us", "us"), ("rnn.dense_ms", "ms"), ("rnn.norm_ms", "ms"),
     ("rnn.useful_position_ratio", "ratio"),
     ("model.stack_ms", "ms"), ("model.band_rnn_ms", "ms"), ("model.time_rnn_ms", "ms")]
    + [(f"model.band_rnn.l{i}_ms", "ms") for i in range(1, LAYERS + 1)]
    + [(f"model.time_rnn.l{i}_ms", "ms") for i in range(1, LAYERS + 1)]
    + [("model.band_rnn_gmacs", "GMAC/s"), ("model.time_rnn_gmacs", "GMAC/s"),
       ("model.build_ms", "ms"),
       ("resample.self_ms", "ms"), ("resample.core_frame_ratio", "ratio"),
       ("prune.self_ms", "ms"), ("prune.active_band_ratio", "ratio"),
       ("bands.split_ms", "ms"), ("bands.mask_head_ms", "ms"), ("bands.apply_mask_ms", "ms"),
       ("bands.split_gmacs", "GMAC/s"), ("bands.mask_head_gmacs", "GMAC/s"),
       ("dsp.stft_ms", "ms"), ("dsp.istft_ms", "ms"), ("dsp.oa_ms", "ms"),
       ("wavio.read_ms", "ms"), ("wavio.write_ms", "ms"), ("cli.self_ms", "ms"),
       ("weights_io.load_ms", "ms"), ("configio.load_ms", "ms"),
       ("macs.analyze_ms", "ms"), ("macs.count_forward_ms", "ms"), ("macs.calibrate_ms", "ms"),
       ("macs.table_ms", "ms"), ("macs.route_mismatches", "count"),
       ("trace.overhead_pct", "%")]
)


def analyzed_work(mac_work, analyze_frames) -> dict:
    """Analyzed MACs per stage and LSTM positions for ``(config, samples)`` items.

    Positions are counted the way the kernel executes them: one per
    frame-band position per direction per group, so they compare with the
    B x T of each recurrent call.
    """
    totals = {"band_split": 0, "band_rnn": 0, "time_rnn": 0, "mask_head": 0, "positions": 0.0}
    cache = {}
    for cfg, samples in mac_work:
        frames = cfg.stft.num_frames(samples)
        key = (id(cfg), frames)
        if key not in cache:
            comps = analyze_frames(cfg, frames)
            n, h, g = cfg.feature_dim, cfg.hidden_dim, cfg.group_size
            cell = 4 * ((n // g) * (h // g) + (h // g) ** 2)
            per_pos = g * cell + n * h  # MACs per position per direction
            rnn = {k: sum(v for c, v in comps.items() if c.startswith(k)) for k in ("band_rnn", "time_rnn")}
            cache[key] = (comps["band_split"], rnn["band_rnn"], rnn["time_rnn"], comps["mask_head"],
                          (rnn["band_rnn"] + rnn["time_rnn"]) * g / per_pos)
        split, band, time_, head, pos = cache[key]
        totals["band_split"] += split
        totals["band_rnn"] += band
        totals["time_rnn"] += time_
        totals["mask_head"] += head
        totals["positions"] += pos
    return totals


def per_layer(tracer, units: float, work: dict, walls: dict, mismatches: int):
    """Return ``(values, absent)``: every PER_LAYER metric, and why some are missing.

    ``units`` is the amount of traced work (audio seconds or passes);
    ``walls`` holds the untraced and traced wall seconds of the same
    operations; ``work`` comes from :func:`analyzed_work`.
    """
    incl, own, calls = tracer.times()
    ctr = tracer.counters
    values, absent = {}, {}

    def missing(*spans):
        for s in spans:
            for name, why in tracer.absent.items():
                if name == s or name.startswith(s + "."):
                    return why
        return None

    def put(metric, spans, fn):
        why = missing(*spans)
        if why is not None:
            values[metric], absent[metric] = 0.0, why
        else:
            values[metric] = float(fn())

    def ratio(num, den):
        return num / den if den else 0.0

    def per_unit_ms(seconds):
        return ratio(seconds * 1e3, units)

    sub = {kind: [f"model.{kind}.l{i}" for i in range(1, LAYERS + 1)] for kind in ("band_rnn", "time_rnn")}
    stage = {kind: sum(incl.get(s, 0.0) for s in names) for kind, names in sub.items()}

    put("rnn.lstm_ms", ["rnn.lstm"], lambda: per_unit_ms(own["rnn.lstm"]))
    put("rnn.lstm_calls", ["rnn.lstm"], lambda: ratio(ctr["rnn.lstm_calls"], units))
    put("rnn.lstm_steps", ["rnn.lstm"], lambda: ratio(ctr["rnn.lstm_steps"], units))
    put("rnn.step_us", ["rnn.lstm"], lambda: ratio(own["rnn.lstm"] * 1e6, ctr["rnn.lstm_steps"]))
    put("rnn.dense_ms", ["rnn.dense"], lambda: per_unit_ms(own["rnn.dense"]))
    put("rnn.norm_ms", ["rnn.norm"], lambda: per_unit_ms(own["rnn.norm"]))
    put("rnn.useful_position_ratio", ["rnn.lstm"],
        lambda: ratio(work["positions"], ctr["rnn.lstm_positions"]))
    put("model.stack_ms", ["model.stack"], lambda: per_unit_ms(incl["model.stack"]))
    for kind, names in sub.items():
        put(f"model.{kind}_ms", [f"model.{kind}"], lambda k=kind: per_unit_ms(stage[k]))
        for i, span in enumerate(names, 1):
            put(f"model.{kind}.l{i}_ms", [f"model.{kind}"], lambda s=span: per_unit_ms(incl[s]))
        put(f"model.{kind}_gmacs", [f"model.{kind}"], lambda k=kind: ratio(work[k], stage[k] * 1e9))
    put("model.build_ms", ["model.build"], lambda: ratio(incl["model.build"] * 1e3, calls["model.build"]))
    put("resample.self_ms", ["resample.sublayer"],
        lambda: per_unit_ms(own["resample.sublayer"] + own["resample.pps"]))
    put("resample.core_frame_ratio", ["resample.sublayer"],
        lambda: ratio(ctr["resample.core_frames"], ctr["resample.full_frames"]))
    put("prune.self_ms", ["prune.time_rnn"], lambda: per_unit_ms(own["prune.time_rnn"]))
    put("prune.active_band_ratio", ["prune.time_rnn"],
        lambda: ratio(ctr["prune.active_bands"], ctr["prune.all_bands"]))
    for metric, span in (("bands.split_ms", "bands.split"), ("bands.mask_head_ms", "bands.mask_head"),
                         ("bands.apply_mask_ms", "bands.apply_mask"), ("dsp.stft_ms", "dsp.stft"),
                         ("dsp.istft_ms", "dsp.istft"), ("dsp.oa_ms", "dsp.oa"),
                         ("wavio.read_ms", "wavio.read"), ("wavio.write_ms", "wavio.write"),
                         ("cli.self_ms", "cli.main"), ("macs.analyze_ms", "macs.analyze"),
                         ("macs.calibrate_ms", "macs.calibrate"), ("macs.table_ms", "macs.table")):
        put(metric, [span], lambda s=span: per_unit_ms(own[s]))
    put("macs.count_forward_ms", ["macs.count_forward"], lambda: per_unit_ms(incl["macs.count_forward"]))
    put("bands.split_gmacs", ["bands.split"], lambda: ratio(work["band_split"], incl["bands.split"] * 1e9))
    put("bands.mask_head_gmacs", ["bands.mask_head"],
        lambda: ratio(work["mask_head"], incl["bands.mask_head"] * 1e9))
    put("weights_io.load_ms", ["weights_io.load"],
        lambda: ratio(incl["weights_io.load"] * 1e3, calls["weights_io.load"]))
    put("configio.load_ms", ["configio.load"],
        lambda: ratio(incl["configio.load"] * 1e3, calls["configio.load"]))
    put("macs.route_mismatches", ["macs.count_forward"], lambda: mismatches)
    put("trace.overhead_pct", [], lambda: 100.0 * (ratio(walls["traced"], walls["untraced"]) - 1.0) if walls["traced"] else 0.0)
    return values, absent
