"""The four workloads.  Each is a closed loop: one caller, the next operation
starts when the previous one returns.

A workload makes every input it feeds the program from its seed, in a work
directory of its own, and checks every output outside the timed region.
Program functions are always reached through their module (``video_net.
video_forward``, never a name imported from it), so the tracer's shims see
the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import re

import numpy as np

from mdnn import audio_net, cli, data, dsp, fusion, model_io, trainer, video_net

REFERENCE_SAMPLES = 199936  # MFCC reference clip length (778 frames)


def _tone_wav(path, rng, n_samples):
    t = np.arange(n_samples) / dsp.SAMPLE_RATE
    x = 0.4 * np.sin(2 * np.pi * rng.uniform(200.0, 2000.0) * t)
    x += rng.normal(0.0, 0.05, n_samples)
    dsp.write_wav(path, dsp.AudioClip(samples=np.clip(x, -1.0, 1.0)))


def reference_mfcc(samples: np.ndarray) -> np.ndarray:
    """MFCC built from ``dsp.dft_direct``; framing, mel bank and DCT are
    written out here, independently of ``dsp.mfcc``."""
    x = np.zeros(REFERENCE_SAMPLES)
    n = min(samples.size, REFERENCE_SAMPLES)
    x[:n] = samples[:n]
    win, hop, n_mel, sr = 1024, 256, 80, 16000
    n_frames = (REFERENCE_SAMPLES - win) // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    hann = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(win) / win))
    spec = dsp.dft_direct(x[idx] * hann)
    power = spec.real ** 2 + spec.imag ** 2
    mel = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), n_mel + 2)
    edges = 700.0 * (10.0 ** (mel / 2595.0) - 1.0)
    freqs = np.arange(win // 2 + 1) * sr / win
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)
    logmel = np.log(power @ bank.T + 1e-10)
    k, m = np.arange(13)[:, None], np.arange(n_mel)[None, :]
    dct = np.cos(np.pi * (2 * m + 1) * k / (2 * n_mel)) * np.sqrt(2.0 / n_mel)
    dct[0] = np.sqrt(1.0 / n_mel)
    return (logmel @ dct.T)[:, :, None]


def held_bytes(nets) -> int:
    """Bytes of arrays held on layer objects, parameters and gradients excluded;
    views count once, through the array that owns their memory."""
    seen: set[int] = set()
    total = 0

    def visit(obj):
        nonlocal total
        for key, val in vars(obj).items():
            if key in ("params", "grads"):
                continue
            if isinstance(val, np.ndarray):
                while isinstance(val.base, np.ndarray):
                    val = val.base
                if id(val) not in seen:
                    seen.add(id(val))
                    total += val.nbytes
            elif hasattr(val, "params") and hasattr(val, "backward"):  # child layer
                visit(val)

    for net in nets:
        for _, layer in net.layers:
            visit(layer)
    return total


class Workload:
    name = ""
    unit = ""          # what throughput counts
    warmup = False     # run one untimed operation at the end of set-up

    def setup(self, seed: int, workdir):
        raise NotImplementedError

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, i: int, result) -> str | None:
        """Error message for a wrong output, else None."""
        return None

    def finish(self, state) -> list[str]:
        """End-of-phase checks."""
        return []

    def work(self, state) -> int:
        return 1

    def nets(self, state) -> list:
        """Nets that have just run an eval forward, for ``layers.cached_bytes``."""
        return []

    def teardown(self, state, workdir):
        """Saves models, so the traced run times ``model_io.save_net``."""


# ----- predict ----------------------------------------------------------------

_PRED_LINE = re.compile(r"^(label|y_video|y_audio|fused):\s*(.*)$")


def _parse_predict(text: str):
    out = {}
    for line in text.splitlines():
        m = _PRED_LINE.match(line.strip())
        if not m:
            continue
        key, val = m.groups()
        if key == "label":
            out[key] = int(val.split()[0])
        else:
            out[key] = np.array([float(v) for v in val.strip("[]").split(",")])
    return out


class Predict(Workload):
    """In-process ``mdnn predict`` on a seeded, untrained ``--tiny`` bundle,
    cycling through a pool of distinct WAV / ``.ntc`` pairs."""

    name, unit, warmup = "predict", "predictions", True
    POOL = 8

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True)
        vnet = video_net.build_video_net(video_net.TINY_VIDEO_CONFIG, rng_seed=seed)
        anet = audio_net.build_audio_net(audio_net.TINY_AUDIO_CONFIG, rng_seed=seed + 1)
        fnet = fusion.build_fusion_head(rng_seed=seed + 2)
        bundle = workdir / "bundle"
        model_io.save_bundle(bundle, vnet, anet, fnet)
        pairs = []
        for j in range(self.POOL):
            # even j pads the audio, odd j truncates it
            n = (int(rng.integers(60_000, REFERENCE_SAMPLES - 1000)) if j % 2 == 0
                 else int(rng.integers(REFERENCE_SAMPLES + 1000, 320_000)))
            wav = workdir / f"a{j}.wav"
            _tone_wav(wav, rng, n)
            shape = (1, int(rng.integers(3, 25)), int(rng.integers(8, 49)),
                     int(rng.integers(8, 49)))
            clip = workdir / f"v{j}.ntc"
            data.write_container(clip, rng.random(shape))
            pairs.append((str(clip), str(wav)))
        return {"bundle": str(bundle), "pairs": pairs, "expected": {}, "nets": None}

    def op(self, state, i):
        video, audio = state["pairs"][i % self.POOL]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["predict", "--model-dir", state["bundle"],
                            "--video", video, "--audio", audio])
        return code, out.getvalue(), err.getvalue()

    def _expected(self, state, j):
        if j in state["expected"]:
            return state["expected"][j]
        if state["nets"] is None:
            state["nets"] = model_io.load_bundle(state["bundle"])
        vnet, anet, fnet = state["nets"]
        video, audio = state["pairs"][j]
        clip = data.preprocess_video(data.read_container(video), vnet.config.input_shape)
        wav = dsp.load_wav(audio)
        feats = dsp.mfcc(data.preprocess_audio(wav))
        ref = reference_mfcc(wav.samples)
        err = None
        if feats.shape != ref.shape:
            err = f"mfcc shape {feats.shape} != reference {ref.shape}"
        elif np.max(np.abs(feats - ref)) > 1e-9 * np.max(np.abs(ref)):
            err = f"mfcc differs from the DFT reference by {np.max(np.abs(feats - ref)):.3g}"
        feats = feats[data.uniform_indices(feats.shape[0], anet.config.input_shape[0])]
        exp = {"y_video": video_net.video_forward(vnet, clip),
               "y_audio": audio_net.audio_forward(anet, feats),
               "fused": fusion.fused_forward(vnet, anet, fnet, clip, feats),
               "error": err}
        state["expected"][j] = exp
        return exp

    def check(self, state, i, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        exp = self._expected(state, i % self.POOL)
        if exp["error"]:
            return exp["error"]
        got = _parse_predict(out)
        for key in ("y_video", "y_audio", "fused"):
            if key not in got or got[key].shape != (2,):
                return f"no {key} line in output"
            if np.max(np.abs(got[key] - exp[key])) > 5e-7:
                return f"{key} {got[key]} != expected {exp[key]}"
        if got.get("label") != int(np.argmax(exp["fused"])):
            return f"label {got.get('label')} != argmax(fused)"
        return None

    def nets(self, state):
        return list(state["nets"] or ())

    def teardown(self, state, workdir):
        vnet, anet, fnet = model_io.load_bundle(state["bundle"])
        model_io.save_bundle(workdir / "bundle_copy", vnet, anet, fnet)


# ----- video_full ---------------------------------------------------------------

class VideoFull(Workload):
    """``.ntc`` -> ``read_container`` -> ``preprocess_video`` -> ``video_forward``
    on the paper-scale net (3x16x112x112, 64/128/256/512 channels)."""

    name, unit = "video_full", "clips"
    POOL = 3

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True)
        sources = []
        for j in range(self.POOL):
            shape = (3, int(rng.integers(12, 25)), int(rng.integers(96, 145)),
                     int(rng.integers(96, 145)))
            path = workdir / f"v{j}.ntc"
            data.write_container(path, rng.random(shape))
            sources.append(str(path))
        net = video_net.build_video_net(video_net.VideoNetConfig(), rng_seed=seed)
        return {"net": net, "sources": sources}

    def op(self, state, i):
        net = state["net"]
        clip = data.preprocess_video(data.read_container(state["sources"][i % self.POOL]),
                                     net.config.input_shape)
        return video_net.video_forward(net, clip)

    def check(self, state, i, p):
        p = np.asarray(p)
        if p.shape != (2,) or not np.all(np.isfinite(p)):
            return f"bad output {p}"
        if np.any(p < 0.0) or np.any(p > 1.0) or abs(p.sum() - 1.0) > 1e-12:
            return f"not a probability vector: {p}"
        return None

    def nets(self, state):
        return [state["net"]]


# ----- training ------------------------------------------------------------------

def _split_rows(seed, n_per_class, workdir):
    rows = data.read_manifest(data.synth_dataset(n_per_class, "separable", seed, workdir))
    train_idx, val_idx, _ = trainer.split_dataset(len(rows), trainer.SplitSpec(seed=seed))
    return [rows[i] for i in train_idx], [rows[i] for i in val_idx]


def _audio_fwd(net):
    return lambda x, mode="eval": audio_net.audio_forward(net, x, mode)


def _finite_losses(logs) -> str | None:
    for log in logs:
        if not np.isfinite(log.train_loss):
            return f"non-finite epoch loss {log.train_loss}"
    return None


class TrainTiny(Workload):
    """One epoch of the tiny three-stage protocol per operation: video, audio,
    then the fusion head on the two nets' current outputs.  The nets keep
    training from one operation to the next."""

    name, unit, warmup = "train_tiny", "samples", True
    N_PER_CLASS = 10      # 20 clips: 16 train, 2 validation
    # The unimodal nets reach validation accuracy 1.0 within 16 epochs on the
    # seeds tried; the head, chasing their moving outputs with 2 Adam steps an
    # epoch, can take 56, more than a traced half-run holds.  So the head is
    # held to a falling training loss instead.
    MIN_VAL_ACCURACY = 1.0

    def setup(self, seed, workdir):
        train_rows, val_rows = _split_rows(seed, self.N_PER_CLASS, workdir)
        vcfg, acfg = video_net.TINY_VIDEO_CONFIG, audio_net.TINY_AUDIO_CONFIG
        s = {"seed": seed, "train_rows": train_rows, "val_rows": val_rows,
             "acc": None, "fusion_losses": []}
        for part, rows in (("train", train_rows), ("val", val_rows)):
            s[f"vx_{part}"] = trainer.video_features(rows, vcfg)
            s[f"ax_{part}"] = trainer.audio_features(rows, acfg)
            s[f"v_{part}"] = trainer.paired(s[f"vx_{part}"], rows)
            s[f"a_{part}"] = trainer.paired(s[f"ax_{part}"], rows)
        s["vnet"] = video_net.build_video_net(vcfg, rng_seed=seed)
        s["anet"] = audio_net.build_audio_net(acfg, rng_seed=seed + 1)
        s["fnet"] = fusion.build_fusion_head(rng_seed=seed + 2)
        return s

    def op(self, s, i):
        cfg = trainer.TrainConfig(epochs=1, rng_seed=s["seed"] + i + 1)
        lv = trainer.train_net(s["vnet"], s["v_train"], s["v_val"], cfg)
        la = trainer.train_net(s["anet"], s["a_train"], s["a_val"], cfg,
                               forward_fn=_audio_fwd(s["anet"]), loss_kind="sigmoid")
        fsets = {}
        for part in ("train", "val"):
            rows = s[f"{part}_rows"]
            feats = trainer.fusion_features(rows, s["vnet"], s["anet"],
                                            vfeats=s[f"vx_{part}"], afeats=s[f"ax_{part}"])
            fsets[part] = trainer.paired(feats, rows)
        lf = trainer.train_net(s["fnet"], fsets["train"], fsets["val"], cfg)
        return lv, la, lf

    def check(self, s, i, result):
        lv, la, lf = result
        s["acc"] = (lv[-1].val_accuracy, la[-1].val_accuracy)
        s["fusion_losses"].append(lf[-1].train_loss)
        return _finite_losses(lv + la + lf)

    def finish(self, s):
        errors = []
        acc, losses = s["acc"], s["fusion_losses"]
        if acc is None or any(a is None or a < self.MIN_VAL_ACCURACY for a in acc):
            errors.append(f"validation accuracy (video, audio) {acc} "
                          f"below {self.MIN_VAL_ACCURACY}")
        if len(losses) < 2 or not losses[-1] < losses[0]:
            errors.append(f"fusion loss did not fall: first {losses[:1]}, last {losses[-1:]}")
        return errors

    def work(self, s):
        return 3 * len(s["train_rows"])

    def nets(self, s):
        return [s["vnet"], s["anet"], s["fnet"]]

    def teardown(self, s, workdir):
        for key in ("vnet", "anet", "fnet"):
            model_io.save_net(workdir / key, s[key])


class TrainAudioFull(Workload):
    """One epoch of ``train_net`` per operation on the paper-scale audio net
    (778x13 MFCC input, 7.1 M parameters, two-sided sigmoid BCE)."""

    name, unit = "train_audio_full", "samples"
    N_PER_CLASS = 5       # 10 clips: 8 train (one batch), 1 validation
    # At the default 1e-3 this net saturates its sigmoids within the first
    # epoch on every seed tried (loss then flat at 12-28), so no epoch after
    # the first learns anything; 1e-4 trains.
    LEARNING_RATE = 1e-4

    def setup(self, seed, workdir):
        train_rows, val_rows = _split_rows(seed, self.N_PER_CLASS, workdir)
        acfg = audio_net.AudioNetConfig()
        return {
            "seed": seed, "losses": [],
            "train": trainer.paired(trainer.audio_features(train_rows, acfg), train_rows),
            "val": trainer.paired(trainer.audio_features(val_rows, acfg), val_rows),
            "net": audio_net.build_audio_net(acfg, rng_seed=seed),
        }

    def op(self, s, i):
        cfg = trainer.TrainConfig(epochs=1, rng_seed=s["seed"] + i + 1,
                                  learning_rate=self.LEARNING_RATE)
        return trainer.train_net(s["net"], s["train"], s["val"], cfg,
                                 forward_fn=_audio_fwd(s["net"]), loss_kind="sigmoid")

    def check(self, s, i, logs):
        s["losses"].append(logs[-1].train_loss)
        return _finite_losses(logs)

    def finish(self, s):
        losses = s["losses"]
        if len(losses) < 2 or not losses[-1] < losses[0]:
            return [f"last epoch loss is not below the first: {losses}"]
        return []

    def work(self, s):
        return len(s["train"])

    def nets(self, s):
        return [s["net"]]

    def teardown(self, s, workdir):
        model_io.save_net(workdir / "audio", s["net"])


WORKLOADS = {w.name: w for w in (Predict(), VideoFull(), TrainTiny(), TrainAudioFull())}
