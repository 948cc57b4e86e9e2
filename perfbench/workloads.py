"""The benchmark's workloads: set-up, one round of timed operations, and the
output checks.

Each workload synthesizes a large utterance pool from the workload seed. A
round is one call pattern of the library's public entry points on inputs
drawn from the pool with a round-derived seed, so the latency distribution
is sampled over many inputs and differs little between workload seeds.
Rounds repeat until the run's time is up. Every operation ends at a single
boundary call (`stamp`), the only clock read per operation.

Import this module only after `src/` is on `sys.path` (run.py does that).
"""

from __future__ import annotations

import contextlib
import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import distillab as dl

# The package re-exports the `finetune` function under the submodule's name.
finetune_mod = importlib.import_module("distillab.finetune")

SAMPLE_RATE = 16000

SHORT_CORPUS = {"n_utts": 192, "syllable_inventory_size": 8,
                "syllables_per_utt_range": (2, 5), "syllable_ms_range": (60, 120)}
LONG_CORPUS = {"n_utts": 128, "syllable_inventory_size": 8,
               "syllables_per_utt_range": (5, 10), "syllable_ms_range": (60, 120)}

# Output-check tolerances, applied against reference.json.
LOSS_RTOL = 1e-3      # first/last loss of round 0, relative
ERROR_RATE_ATOL = 0.01  # error rate of analyze round 0, absolute


@dataclass
class RoundResult:
    ops: int
    errors: list[str] = field(default_factory=list)
    summary: object = None  # what reference.json records for round 0


def round_seed(seed: int, r: int) -> int:
    return seed * 4096 + r


def draw(pool: list, n: int, seed: int, r: int) -> list:
    """The n utterances of round r, drawn from the pool without replacement."""
    idx = np.random.default_rng([seed, r, 104]).choice(len(pool), size=n, replace=False)
    return [pool[int(i)] for i in idx]


def make_corpus(work: Path, spec: dict, seed: int):
    dl.generate_synthetic_corpus({**spec, "seed": seed}, work / "corpus")
    return dl.load_corpus(work / "corpus")


def make_teacher(work: Path, seed: int):
    """Random `desk-teacher` checkpoint, saved and loaded back."""
    cfg = dl.PRESETS["desk-teacher"]
    params = dl.init_params(cfg, np.random.default_rng([seed, 101]))
    dl.save_checkpoint(dl.Checkpoint.from_model(dl.AcousticModel(cfg, params=params)),
                       work / "teacher")
    return dl.load_checkpoint(work / "teacher")


def save_and_load(ckpt, path: Path):
    dl.save_checkpoint(ckpt, path)
    return dl.load_checkpoint(path)


def trace_ends(trace) -> list[float] | None:
    return [trace[0][1], trace[-1][1]] if trace else None


def check_trace(trace, steps: int, reference: list | None) -> list[str]:
    """Loss trace of one round: complete, finite and, where a reference
    exists, matching its first and last values."""
    losses = [loss for _, loss in trace]
    if len(losses) != steps:
        return [f"trace has {len(losses)} of {steps} steps"]
    if not all(math.isfinite(x) for x in losses):
        return ["non-finite loss in trace"]
    if reference is not None:
        for got, want, which in ((losses[0], reference[0], "first"),
                                 (losses[-1], reference[1], "last")):
            if abs(got - want) > LOSS_RTOL * abs(want):
                return [f"{which} loss {got!r} differs from reference {want!r}"]
    return []


@contextlib.contextmanager
def patched(owner, attr: str, after):
    """Replace owner.attr by a wrapper that calls `after(args, result)`."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        after(args, out)
        return out

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Workload:
    name = ""
    ops_per_round = 0
    traced_rounds = 2  # rounds of the traced run, about 8 s of work untraced

    def setup(self, work: Path, seed: int) -> dict:
        raise NotImplementedError

    def hooks(self, stamp, meter) -> contextlib.AbstractContextManager:
        """Install the step boundary (`stamp`) and the audio meter, which
        counts input samples: each batch utterance once per distil step, each
        utterance forward once in finetune, each probe utterance once per
        analyze chunk."""
        return contextlib.nullcontext()

    def round(self, st: dict, seed: int, r: int, stamp, meter, ref) -> RoundResult:
        """Run round r; `ref` is the reference.json entry of the seed, if any,
        checked on round 0."""
        raise NotImplementedError


class Distil(Workload):
    """train_distill: 8-layer teacher, 4-layer jump student, conv frozen,
    batch 6, shuffle 0.375, mix 0.15. One operation is one optimizer step."""

    name = "distil"
    ops_per_round = 4
    traced_rounds = 4

    def setup(self, work, seed):
        corpus = make_corpus(work, SHORT_CORPUS, seed)
        teacher = make_teacher(work, seed)
        teacher.to_model()  # set-up builds every model it loads, so that work shows in setup_s
        return {"corpus": corpus, "teacher": teacher}

    def hooks(self, stamp, meter):
        stack = contextlib.ExitStack()
        stack.enter_context(patched(dl.distill, "adam_step", lambda a, out: stamp()))
        stack.enter_context(patched(dl.distill, "batch_mix",
                                    lambda a, out: meter(sum(len(u) for u in out))))
        return stack

    def round(self, st, seed, r, stamp, meter, ref):
        cfg = dl.DistillConfig(steps=self.ops_per_round, batch_size=6, p_shuffle=0.375,
                               p_mix=0.15, init_mode="jump", freeze_conv=True,
                               student_layers=4, seed=round_seed(seed, r))
        res = dl.train_distill(st["teacher"], st["corpus"], None, cfg)
        errors = ["diverged"] if res.diverged else []
        errors += check_trace(res.trace, cfg.steps, ref if r == 0 else None)
        return RoundResult(cfg.steps, errors, trace_ends(res.trace))


class Finetune(Workload):
    """finetune with accumulation 1, span masking and per-epoch dev
    evaluate_ctc. A round fine-tunes on 40 pool utterances, 8 held out, for
    one epoch over the other 32. One operation is one micro-step; the
    epoch-end and baseline dev evaluations land in the next micro-step."""

    name = "finetune"
    utts_per_round = 40
    ops_per_round = 32

    def setup(self, work, seed):
        corpus = make_corpus(work, LONG_CORPUS, seed)
        teacher = make_teacher(work, seed)
        student = save_and_load(dl.layer_jump_init(teacher, 4), work / "student")
        student.to_model()
        return {"corpus": corpus, "student": student}

    def hooks(self, stamp, meter):
        stack = contextlib.ExitStack()
        stack.enter_context(patched(finetune_mod, "adam_step", lambda a, out: stamp()))
        stack.enter_context(patched(dl.AcousticModel, "forward_features",
                                    lambda a, out: meter(len(a[1]))))
        return stack

    def round(self, st, seed, r, stamp, meter, ref):
        steps = self.ops_per_round
        cfg = dl.FinetuneConfig(
            steps=steps, accumulation=1,
            sched=dl.TriStageSchedule(peak_lr=5e-4, warmup_steps=4, hold_steps=12,
                                      total_steps=steps),
            mask=dl.MaskSpec(), holdout_fraction=0.2, seed=round_seed(seed, r))
        corpus = st["corpus"]
        utts = draw(corpus.utterances, self.utts_per_round, seed, r)
        res = dl.finetune(st["student"], utts, corpus.transcripts, cfg)
        errors = ["diverged"] if res.diverged else []
        if len(res.report) != 2:
            errors.append(f"expected one epoch, got report {res.report}")
        if not all(math.isfinite(cer) and cer >= 0 for _, _, cer in res.report):
            errors.append(f"bad dev error rate in {res.report}")
        errors += check_trace(res.trace, steps, ref if r == 0 else None)
        return RoundResult(steps, errors, trace_ends(res.trace))


class Analyze(Workload):
    """The read path: evaluate_ctc on the student, then interlayer_matrix of
    student vs teacher. A round draws 48 probe utterances from the pool and
    scores them in chunks of 6; one operation is one chunk. Every chunk
    exceeds `max_frames` frames, so the CKA row subsampling always runs."""

    name = "analyze"
    chunk = 6
    max_frames = 192
    ops_per_round = 8

    def setup(self, work, seed):
        corpus = make_corpus(work, SHORT_CORPUS, seed)
        teacher = make_teacher(work, seed)
        student = dl.layer_jump_init(teacher, 4)
        vocab = dl.build_vocab(corpus.transcripts)
        rng = np.random.default_rng([seed, 102])
        d_model = student.config.d_model
        student.tensors["head.weight"] = (rng.standard_normal((d_model, len(vocab) + 1))
                                          / np.sqrt(d_model)).astype(np.float32)
        student.tensors["head.bias"] = np.zeros(len(vocab) + 1, dtype=np.float32)
        student.extra["vocab"] = vocab
        student = save_and_load(student, work / "student")
        return {"corpus": corpus, "teacher": teacher, "student": student,
                "model": student.to_model(), "head": dl.load_head(student)}

    def round(self, st, seed, r, stamp, meter, ref):
        corpus = st["corpus"]
        probe = draw(corpus.utterances, self.chunk * self.ops_per_round, seed, r)
        errors: list[str] = []
        dist = ref_len = 0
        for i in range(self.ops_per_round):
            utts = probe[i * self.chunk:(i + 1) * self.chunk]
            rate, _ = dl.evaluate_ctc(st["model"], st["head"], utts, corpus.transcripts)
            m = dl.interlayer_matrix(st["student"], st["teacher"], utts,
                                     max_frames=self.max_frames, seed=r)
            stamp()
            n_ref = sum(len(corpus.transcripts[u.id]) for u in utts)
            dist += round(rate * n_ref)
            ref_len += n_ref
            meter(sum(len(u) for u in utts))
            if not (np.isfinite(m.values).all() and (m.values >= 0).all()
                    and (m.values <= 1).all()):
                errors.append(f"chunk {i}: CKA entry outside [0, 1]")
        rate = dist / ref_len
        if r == 0 and ref is not None and abs(rate - ref) > ERROR_RATE_ATOL:
            errors.append(f"error rate {rate!r} differs from reference {ref!r}")
        return RoundResult(self.ops_per_round, errors, rate)


WORKLOADS = {w.name: w for w in (Distil(), Finetune(), Analyze())}
