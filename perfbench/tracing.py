"""Span tracing of the library's public functions, from outside the library.

`Tracer.install()` replaces each traced function, in every `distillab` module
namespace that holds it, and each traced method on its class, by a wrapper
that records a span: name, start, end, parent span and step id. Spans stay in
memory until `write()` at the end of the run. Wrappers also record counts
computed from operand shapes, which repeat exactly for a given input.

Import this module only after `src/` is on `sys.path` (run.py does that).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import distillab as dl

SETUP_STEP = -1  # step id of spans recorded during set-up

# Node.op names the tape can record, one tape-node count each.
TAPE_OPS = ("add", "concat", "conv1d", "exp", "gelu", "layer_norm", "log_softmax",
            "logaddexp", "matmul", "mean", "mul", "reshape", "softmax", "sub", "sum",
            "take", "transpose")

# Layers whose time is reported per set-up rather than per operation.
SETUP_SPANS = ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
               "checkpoint.to_model", "splice.generate_synthetic_corpus",
               "splice.load_corpus")

# Spans reported as busy_ms/self_ms, per operation of the timed loop.
LOOP_SPANS = ("model.forward_features", "tensor.gelu", "tensor.conv1d", "tensor.matmul",
              "tensor.softmax", "tensor.layer_norm", "model.forward_encoder.taped",
              "model.forward_encoder.untaped", "tensor.backward", "finetune.ctc_loss",
              "finetune.mask_features", "finetune.evaluate_ctc",
              "finetune.ctc_greedy_decode", "finetune.edit_distance", "optim.adam_step",
              "distill.distill_loss", "splice.maybe_shuffle", "splice.batch_mix",
              "cka.interlayer_matrix", "cka.linear_cka")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in LOOP_SPANS:
        units[f"{span}.busy_ms"] = "ms/op"
        units[f"{span}.self_ms"] = "ms/op"
    for span in SETUP_SPANS:
        units[f"{span}.busy_ms"] = "ms/setup"
        units[f"{span}.self_ms"] = "ms/setup"
    for span in ("model.forward_features", "optim.adam_step", "cka.linear_cka"):
        units[f"{span}.calls"] = "count/op"
    for name in ("model.forward_features.frames", "model.forward_encoder.frames",
                 "finetune.ctc_loss.frames"):
        units[name] = "count/call"
    units["tensor.matmul.flops"] = "flop/op"
    units["tensor.tape_nodes"] = "count/backward"
    for op in TAPE_OPS:
        units[f"tensor.tape_nodes.{op}"] = "count/backward"
    units["splice.maybe_shuffle.spliced_ratio"] = "ratio"
    units["splice.batch_mix.mixed_ratio"] = "ratio"
    units["checkpoint.bytes"] = "bytes/setup"
    units["trace.untraced_audio_s_per_s"] = "s/s"
    units["trace.traced_audio_s_per_s"] = "s/s"
    units["trace.overhead_pct"] = "%"
    return units


def _module(name: str):
    return importlib.import_module(f"distillab.{name}")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One [name id, start ns, end ns, parent index, step id] per span.
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.step = SETUP_STEP
        # Counts per phase ("setup" or "loop"), keyed by metric name.
        self.counts: dict[str, defaultdict] = {"setup": defaultdict(int),
                                                "loop": defaultdict(int)}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def count(self, name: str, value) -> None:
        self.counts["setup" if self.step == SETUP_STEP else "loop"][name] += value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, before=None, after=None):
        """`name` is a string or a callable of the call's arguments."""
        spans, stack = self.spans, self._stack
        fixed = self._name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args))
            if before is not None:
                before(args)
            i = len(spans)
            spans.append([nid, perf_counter_ns(), 0, stack[-1] if stack else -1, self.step])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf_counter_ns()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def _patch_function(self, module: str, attr: str, name: str, before=None, after=None):
        original = getattr(_module(module), attr)
        traced = self._wrap(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "distillab" and not mod_name.startswith("distillab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def _patch_method(self, cls, attr: str, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, before, after))

    def install(self) -> None:
        count = self.count

        def matmul_flops(args, out):
            count("tensor.matmul.flops", 2 * out.data.size * args[0].shape[-1])

        def tape_nodes(args):
            nodes = args[0].nodes
            count("tensor.tape_nodes", len(nodes))
            for op, n in Counter(node.op for node in nodes).items():
                count(f"tensor.tape_nodes.{op}", n)

        def shuffled(args, out):
            count("splice.maybe_shuffle.attempts", 1)
            count("splice.maybe_shuffle.spliced", int(out is not args[0]))

        def mixed(args, out):
            count("splice.batch_mix.attempts", len(out))
            count("splice.batch_mix.mixed", sum(o is not b for o, b in zip(out, args[0])))

        def saved(args, out):
            count("checkpoint.bytes", sum(f.stat().st_size for f in Path(args[1]).iterdir()))

        def encoder_name(args):
            taped = dl.tensor.active_graph() is not None
            return "model.forward_encoder.taped" if taped else "model.forward_encoder.untaped"

        for op in ("gelu", "conv1d", "softmax", "layer_norm"):
            self._patch_function("tensor", op, f"tensor.{op}")
        self._patch_function("tensor", "matmul", "tensor.matmul", after=matmul_flops)
        self._patch_method(dl.Graph, "backward", "tensor.backward", before=tape_nodes)
        self._patch_method(dl.AcousticModel, "forward_features", "model.forward_features",
                           after=lambda a, out: count("model.forward_features.frames",
                                                      out.shape[0]))
        self._patch_method(dl.AcousticModel, "forward_encoder", encoder_name,
                           after=lambda a, out: count("model.forward_encoder.frames",
                                                      a[1].shape[0]))
        self._patch_function("finetune", "ctc_loss", "finetune.ctc_loss",
                             after=lambda a, out: count("finetune.ctc_loss.frames",
                                                        a[0].shape[0]))
        for fn in ("finetune", "mask_features", "evaluate_ctc", "ctc_greedy_decode",
                   "edit_distance"):
            self._patch_function("finetune", fn, f"finetune.{fn}")
        self._patch_function("optim", "adam_step", "optim.adam_step")
        for fn in ("train_distill", "distill_loss"):
            self._patch_function("distill", fn, f"distill.{fn}")
        self._patch_function("splice", "maybe_shuffle", "splice.maybe_shuffle", after=shuffled)
        self._patch_function("splice", "batch_mix", "splice.batch_mix", after=mixed)
        for fn in ("generate_synthetic_corpus", "load_corpus"):
            self._patch_function("splice", fn, f"splice.{fn}")
        for fn in ("interlayer_matrix", "linear_cka"):
            self._patch_function("cka", fn, f"cka.{fn}")
        self._patch_function("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint",
                             after=saved)
        self._patch_function("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint")
        self._patch_method(dl.Checkpoint, "to_model", "checkpoint.to_model")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reporting -------------------------------------------------------------

    def span_times(self) -> dict[tuple[str, str], list[float]]:
        """(span name, phase) -> [busy ms, self ms], summed over spans."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i, (nid, start, end, _, step) in enumerate(self.spans):
            acc = out[(self.names[nid], "setup" if step == SETUP_STEP else "loop")]
            acc[0] += (end - start) / 1e6
            acc[1] += (end - start - child_ns[i]) / 1e6
        return out

    def span_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return sum(1 for s in self.spans if s[0] == nid and s[4] != SETUP_STEP)

    def metrics(self, ops: int, setups: int) -> dict[str, float]:
        """Per-layer metrics: loop figures per operation, set-up figures per
        set-up, frame counts per call and tape-node counts per backward."""
        times = self.span_times()
        loop, setup = self.counts["loop"], self.counts["setup"]

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for span in LOOP_SPANS:
            busy, self_ms = times.get((span, "loop"), (0.0, 0.0))
            m[f"{span}.busy_ms"] = ratio(busy, ops)
            m[f"{span}.self_ms"] = ratio(self_ms, ops)
        for span in SETUP_SPANS:
            busy, self_ms = times.get((span, "setup"), (0.0, 0.0))
            m[f"{span}.busy_ms"] = ratio(busy, setups)
            m[f"{span}.self_ms"] = ratio(self_ms, setups)
        for span in ("model.forward_features", "optim.adam_step", "cka.linear_cka"):
            m[f"{span}.calls"] = ratio(self.span_calls(span), ops)
        encoder_calls = (self.span_calls("model.forward_encoder.taped")
                         + self.span_calls("model.forward_encoder.untaped"))
        m["model.forward_features.frames"] = ratio(loop["model.forward_features.frames"],
                                                   self.span_calls("model.forward_features"))
        m["model.forward_encoder.frames"] = ratio(loop["model.forward_encoder.frames"],
                                                  encoder_calls)
        m["finetune.ctc_loss.frames"] = ratio(loop["finetune.ctc_loss.frames"],
                                              self.span_calls("finetune.ctc_loss"))
        m["tensor.matmul.flops"] = ratio(loop["tensor.matmul.flops"], ops)
        backwards = self.span_calls("tensor.backward")
        m["tensor.tape_nodes"] = ratio(loop["tensor.tape_nodes"], backwards)
        for op in TAPE_OPS:
            m[f"tensor.tape_nodes.{op}"] = ratio(loop[f"tensor.tape_nodes.{op}"], backwards)
        m["splice.maybe_shuffle.spliced_ratio"] = ratio(loop["splice.maybe_shuffle.spliced"],
                                                        loop["splice.maybe_shuffle.attempts"])
        m["splice.batch_mix.mixed_ratio"] = ratio(loop["splice.batch_mix.mixed"],
                                                  loop["splice.batch_mix.attempts"])
        m["checkpoint.bytes"] = ratio(setup["checkpoint.bytes"], setups)
        return m

    def write(self, path: Path, env: dict) -> None:
        """Write all spans; times are ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[nid, start - t0, end - t0, parent, step]
                for nid, start, end, parent, step in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"env": env, "names": self.names,
                                    "columns": ["name", "start_ns", "end_ns", "parent", "step"],
                                    "spans": rows}, separators=(",", ":")), encoding="utf-8")
