"""Deterministic inputs and ground truth for the four benchmark workloads.

Nothing here imports the program under test. Every expected result is
derived from how the input was built (the scripted solvability pattern, the
planted trace defect, the layout ranges), so the oracles stay independent of
sffuse. The same (workload, seed, scale) always writes the same bytes.

Each workload is a pool of ops of fixed composition: the same number of
instances per pattern, trace kinds per step, or layouts per sequence length
whatever the seed, so every seed measures the same mix.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from oracle import (
    MALFORMED_KINDS,
    allocation,
    blocked_fraction,
    blocked_tile_fraction,
    mask_from_spec,
    spec_roles,
)

WORDS = (
    "amber anchor apple arch autumn badge bamboo banner barrel basin beacon "
    "bell bench berry blade blossom board bottle branch breeze brick bridge "
    "bucket cabin candle canyon carpet castle cedar chalk cherry chime cliff "
    "cloud clover comet copper coral cotton crane creek crystal dancer delta "
    "desert drum dune eagle ember engine falcon feather fern fiddle flame "
    "flute forest fountain garden glacier glass granite guitar harbor harp "
    "hazel helmet hollow horizon island ivory jasmine kettle lantern lemon "
    "lily linen maple marble meadow melody mirror mist moss mountain needle "
    "oak ocean orchid paddle palace pebble pepper piano pillar pine planet "
    "pond prairie quartz quill rain raven reed ribbon ridge river robin rocket "
    "saddle sail salmon sand shadow shell silver slate snow spark spruce "
    "stone storm stream summit sun swan tambourine thunder tide timber torch "
    "tower trumpet tulip valley velvet violin walnut wave whistle willow wind "
    "window wolf yarrow zephyr"
).split()

PEM_LABELS = ("Audio", "Visual", "Audio-Visual")
WELL_FORMED_KINDS = ("right_match", "right_miss", "wrong_match", "wrong_miss")

# Marker token ids for generated token sequences; payload ids start at 100.
MARKERS = {
    "video": [1, 2],
    "audio": [3, 4],
    "tag_open": {"mod": 5, "v": 6, "a": 7, "sum": 8, "ans": 9},
    "tag_close": {"mod": 10, "v": 11, "a": 12, "sum": 13, "ans": 14},
}

# Per scale: the size and composition of each pool. The layout workloads
# take each sequence length equally often, so the median op is an L=512 one
# and the 90th percentile an L=1024 one, the length at which the mask export
# and the dense attention kernel take the most time.
SCALES = {
    "full": {
        "annotate": {"shards": 100, "per_pattern": 3},
        "rl_step": {"steps": 100, "questions": 16, "rollouts": 8},
        "mask": {"lengths": {256: 4, 512: 4, 1024: 4}},
        "attention": {"lengths": {256: 7, 512: 7, 1024: 7},
                      "heads": 3, "dim": 64, "report_layouts": 4},
    },
    "tiny": {
        "annotate": {"shards": 2, "per_pattern": 1},
        "rl_step": {"steps": 2, "questions": 4, "rollouts": 8},
        "mask": {"lengths": {64: 1, 128: 1}},
        "attention": {"lengths": {64: 1, 128: 1},
                      "heads": 2, "dim": 16, "report_layouts": 1},
    },
}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(_dump(row) + "\n" for row in rows), encoding="utf-8")


class _Corpus:
    """Word text of a requested length, sliced from one long random string."""

    def __init__(self, rng: random.Random, size: int = 1 << 18):
        self.rng = rng
        self.text = " ".join(rng.choice(WORDS) for _ in range(size // 6))

    def words(self, count: int) -> str:
        return " ".join(self.rng.choice(WORDS) for _ in range(count))

    def chars(self, length: int) -> str:
        start = self.text.index(" ", self.rng.randrange(len(self.text) - length - 64)) + 1
        end = self.text.rfind(" ", start, start + length + 1)
        return self.text[start:end if end > start else start + length].strip()

    def log_uniform(self, low: int, high: int) -> str:
        return self.chars(int(math.exp(self.rng.uniform(math.log(low), math.log(high)))))


def _answer(rng: random.Random) -> str:
    return " ".join(rng.sample(WORDS, rng.randint(1, 3)))


# --- annotate ----------------------------------------------------------------

PATTERNS = ("none", "A", "V", "AV", "A,V", "A,AV", "V,AV", "A,V,AV", None)


def _instance(rng: random.Random, corpus: _Corpus, iid: str, pattern: str | None) -> dict:
    question = corpus.words(rng.randint(3, 40)) + "?"
    audio_ref, video_ref = f"mock://audio/{iid}", f"mock://video/{iid}"
    if pattern is not None:
        place = rng.randrange(3)
        if place == 0:
            audio_ref += f"?solvable={pattern}"
        elif place == 1:
            video_ref += f"?solvable={pattern}"
        else:
            question += f" [solvable={pattern}]"
    gold = _answer(rng)
    row = {"id": iid, "question": question, "gold_answer": gold,
           "media": {"audio_ref": audio_ref, "video_ref": video_ref}}
    if rng.random() < 0.35:
        choices = [gold] + [_answer(rng) for _ in range(rng.randint(2, 3))]
        rng.shuffle(choices)
        row["choices"] = choices
    return row


def gen_annotate(rng: random.Random, out: Path, cfg: dict) -> dict:
    corpus = _Corpus(rng, 1 << 14)

    def shard(name: str) -> dict:
        patterns = list(PATTERNS) * cfg["per_pattern"]
        rng.shuffle(patterns)
        rows, expected = [], {}
        for pattern in patterns:
            iid = f"i{rng.getrandbits(40):010x}"
            rows.append(_instance(rng, corpus, iid, pattern))
            solvable = set(("A", "V", "AV") if pattern is None else
                           () if pattern == "none" else pattern.split(","))
            expected[iid] = [s in solvable for s in ("A", "V", "AV")]
        _write_jsonl(out / name, rows)
        return {"key": name, "input": name, "items": len(rows), "expected": expected}

    pool = [shard(f"shard_{i:03d}.jsonl") for i in range(cfg["shards"])]
    stats = {"instances_per_pattern": {("unmarked" if p is None else p):
                                       cfg["per_pattern"] * cfg["shards"] for p in PATTERNS},
             "instances_per_shard": len(PATTERNS) * cfg["per_pattern"]}
    return {"warmup": shard("shard_warmup.jsonl"), "pool": pool, "stats": stats}


# --- rl_step -----------------------------------------------------------------

def _variant(rng: random.Random, gold: str) -> str:
    """A spelling of gold that matches it only after normalization."""
    words = gold.split()
    pick = rng.randrange(4)
    if pick == 0:
        text = gold.upper()
    elif pick == 1:
        text = "  ".join(w.capitalize() for w in words)
    elif pick == 2:
        text = f"  {gold} "
    else:
        text = gold
    return text + rng.choice(("" if text != gold else ".", ".", "!", "?", " .", ";"))


def _trace(rng: random.Random, corpus: _Corpus, kind: str, gold_pem: str,
           gold_answer: str) -> str:
    pem = gold_pem
    if kind.startswith("wrong"):
        pem = rng.choice([p for p in PEM_LABELS if p != gold_pem])
    answer = _variant(rng, gold_answer)
    if kind.endswith("miss"):
        answer = _answer(rng)
        while answer.casefold() == gold_answer.casefold():
            answer = _answer(rng)
    sep = lambda: rng.choice(("", "", "\n", " "))  # noqa: E731
    mod = f"<mod>{rng.choice(('', ' '))}{pem}</mod>"
    if kind == "UnknownPemValue":
        mod = f"<mod>{rng.choice(('audio', 'Video', 'Both', 'Audio Visual'))}</mod>"
    v = f"<v>{corpus.log_uniform(100, 4000)}</v>"
    a = f"<a>{corpus.log_uniform(100, 4000)}</a>"
    if kind == "UnclosedTag":
        a = a[:-len("</a>")]
    summary = corpus.log_uniform(40, 400)
    ans = f"<ans>{answer}</ans>"
    if kind == "NestedTag":
        summ, ans = f"<sum>{summary} {ans}</sum>", ""
    else:
        summ = f"<sum>{summary}</sum>"
    if kind == "MissingTag":
        summ = ""
    blocks = [mod, v, a, summ, ans]
    if kind == "OutOfOrder":
        blocks[1], blocks[2] = blocks[2], blocks[1]
    if kind == "StrayContent":
        blocks[1] += f" {corpus.words(rng.randint(1, 4))} "
    if kind == "DuplicateTag":
        blocks.append(f"<v>{corpus.log_uniform(20, 200)}</v>")
    return rng.choice(("", "\n")) + "".join(b + sep() for b in blocks if b)


def _expected_score(kind: str) -> dict:
    if kind in MALFORMED_KINDS:
        return {"r_mps": 0, "r_acc": 0,
                "kinds": [kind, kind] if kind == "DuplicateTag" else [kind]}
    return {"r_mps": int(kind.startswith("right")), "r_acc": int(kind.endswith("match")),
            "kinds": []}


def gen_rl_step(rng: random.Random, out: Path, cfg: dict) -> dict:
    corpus = _Corpus(rng)
    n_traces = cfg["questions"] * cfg["rollouts"]
    n_malformed = round(0.4 * n_traces / len(MALFORMED_KINDS))
    n_ok = n_traces - n_malformed * len(MALFORMED_KINDS)
    kinds = [k for k in MALFORMED_KINDS for _ in range(n_malformed)]
    kinds += [WELL_FORMED_KINDS[i % len(WELL_FORMED_KINDS)] for i in range(n_ok)]

    def step(prefix: str) -> dict:
        rng.shuffle(kinds)
        traces, labels, groups, expected = [], [], [], {}
        for q in range(cfg["questions"]):
            gold_pem, gold_answer = rng.choice(PEM_LABELS), _answer(rng)
            rewards = []
            for k in range(cfg["rollouts"]):
                kind = kinds[q * cfg["rollouts"] + k]
                tid = f"t{rng.getrandbits(40):010x}"
                traces.append({"id": tid, "text": _trace(rng, corpus, kind, gold_pem,
                                                         gold_answer)})
                labels.append({"id": tid, "pem": gold_pem, "answer": gold_answer})
                expected[tid] = dict(_expected_score(kind), kind=kind)
                rewards.append(1.0 * expected[tid]["r_acc"] + 0.2 * expected[tid]["r_mps"])
            logp_old = [-rng.uniform(5.0, 60.0) for _ in rewards]
            logp_new = [x + rng.gauss(0.0, 0.15) for x in logp_old]
            logp_ref = [x + rng.gauss(0.0, 0.1) for x in logp_new]
            groups.append({"group_id": f"{prefix}-q{q:02d}", "rewards": rewards,
                           "logp_new": logp_new, "logp_old": logp_old, "logp_ref": logp_ref})
        files = {name: f"{prefix}_{name}.jsonl" for name in ("traces", "labels", "rollouts")}
        _write_jsonl(out / files["traces"], traces)
        _write_jsonl(out / files["labels"], labels)
        _write_jsonl(out / files["rollouts"], groups)
        lengths.extend(len(t["text"]) for t in traces)
        return {"key": prefix, "items": len(traces), "expected": expected, **files}

    lengths: list[int] = []
    pool = [step(f"step_{i:03d}") for i in range(cfg["steps"])]
    kind_counts: dict[str, int] = {}
    for op in pool:
        for score in op["expected"].values():
            kind_counts[score["kind"]] = kind_counts.get(score["kind"], 0) + 1
    lengths.sort()
    stats = {"trace_kinds": kind_counts, "traces_per_step": n_traces,
             "trace_chars": {"min": lengths[0], "median": lengths[len(lengths) // 2],
                             "max": lengths[-1]}}
    return {"warmup": step("step_warmup"), "pool": pool, "stats": stats}


# --- token layouts (mask and attention) --------------------------------------

def _split(total: int, weights: list[float]) -> list[int]:
    """Split total into len(weights) parts of at least 1, proportional to weights."""
    scale = (total - len(weights)) / sum(weights)
    parts = [1 + int(w * scale) for w in weights]
    parts[-1] += total - sum(parts)
    return parts


def token_layout(rng: random.Random, length: int, modality: str,
                 input_share: tuple[float, float], audio_share: tuple[float, float]
                 ) -> tuple[list[int], dict]:
    """A marker-delimited token sequence of exactly ``length`` tokens and the
    layout spec that locating its markers must yield.

    ``modality`` is "AV" (both inputs, v and a reasoning) or a unimodal "A"
    or "V" (one input and only its own reasoning tag, so nothing is blocked
    beyond causality). ``audio_share`` is the audio reasoning's share of the
    reasoning tokens; with ``input_share`` it sets how much is blocked.
    """
    use_v, use_a = modality in ("AV", "V"), modality in ("AV", "A")
    tags = ["mod"] + (["v"] if use_v else []) + (["a"] if use_a else []) + ["sum", "ans"]
    markers = 2 * (use_v + use_a) + 2 * len(tags)
    free = length - markers - 1  # one token inside <mod>
    inputs = max(use_v + use_a, int(free * rng.uniform(*input_share)))
    question = max(1, int(free * rng.uniform(0.02, 0.06)))
    reasoning = free - inputs - question
    answer = rng.randint(1, 4)
    summary = max(1, int(reasoning * rng.uniform(0.05, 0.1)))
    body = reasoning - answer - summary
    share = rng.uniform(*audio_share)
    v_len, a_len = ((_split(body, [1 - share, share])) if use_v and use_a else
                    (body, 0) if use_v else (0, body))
    in_parts = (_split(inputs, [rng.uniform(0.3, 0.7), 1.0]) if use_v and use_a
                else [inputs])

    tokens: list[int] = []
    spec: dict = {"length": length}

    def payload(count: int) -> tuple[int, int]:
        first = len(tokens)
        tokens.extend(rng.randrange(100, 30000) for _ in range(count))
        return first, len(tokens) - 1

    def block(open_id: int, close_id: int, count: int) -> tuple[int, int, int, int]:
        start = len(tokens)
        tokens.append(open_id)
        first, last = payload(count)
        tokens.append(close_id)
        return start, first, last, len(tokens) - 1

    sizes = iter(in_parts)
    if use_v:
        _, first, last, _ = block(*MARKERS["video"], next(sizes))
        spec["video_input"] = [[first, last]]
    if use_a:
        _, first, last, _ = block(*MARKERS["audio"], next(sizes))
        spec["audio_input"] = [[first, last]]
    payload(question)
    counts = {"mod": 1, "v": v_len, "a": a_len, "sum": summary, "ans": answer}
    for tag in tags:
        start, first, last, end = block(MARKERS["tag_open"][tag], MARKERS["tag_close"][tag],
                                        counts[tag])
        if tag == "v":
            spec["visual_reasoning"] = [[first, last]]
            spec["visual_span"] = [[start, end]]
        elif tag == "a":
            spec["audio_reasoning"] = [[first, last]]
        elif tag == "sum":
            spec["summary_span"] = [[first, last]]
    assert len(tokens) == length, (len(tokens), length)
    return tokens, spec


def _lengths(rng: random.Random, lengths: dict[int, int]) -> list[int]:
    row = [length for length, count in sorted(lengths.items()) for _ in range(count)]
    rng.shuffle(row)
    return row


def _layout_stats(pool: list[dict]) -> dict:
    histogram: dict[str, int] = {}
    for op in pool:
        histogram[str(op["length"])] = histogram.get(str(op["length"]), 0) + 1
    fractions = sorted(op["blocked_fraction"] for op in pool)
    return {"length_histogram": histogram,
            "blocked_fraction": {"min": fractions[0], "median": fractions[len(fractions) // 2],
                                 "max": fractions[-1]}}


# --- mask --------------------------------------------------------------------

def gen_mask(rng: random.Random, out: Path, cfg: dict) -> dict:
    def layout(key: str, length: int, modality: str) -> dict:
        tokens, spec = token_layout(rng, length, modality, (0.3, 0.6), (0.2, 0.8))
        (out / f"{key}.spec.json").write_text(_dump(spec), encoding="utf-8")
        (out / f"{key}.tokens.json").write_text(
            _dump({"tokens": tokens, "markers": MARKERS}), encoding="utf-8")
        return {"key": key, "spec": f"{key}.spec.json", "tokens": f"{key}.tokens.json",
                "length": length, "modality": modality, "items": 1,
                "blocked_fraction": blocked_fraction(mask_from_spec(spec))}

    lengths = _lengths(rng, cfg["lengths"])
    unimodal = set(rng.sample(range(len(lengths)), max(1, len(lengths) // 5)))
    pool = [layout(f"layout_{i:03d}", length, rng.choice("AV") if i in unimodal else "AV")
            for i, length in enumerate(lengths)]
    stats = dict(_layout_stats(pool), unimodal_layouts=len(unimodal))
    return {"warmup": layout("layout_warmup", min(lengths), "AV"), "pool": pool, "stats": stats}


# --- attention ---------------------------------------------------------------

def _report_weights(rng: random.Random, out: Path, name: str) -> dict:
    """A small layout and 16 row-stochastic layers over its visible cells,
    written for ``attn-report``, with the allocation they must give."""
    _, spec = token_layout(rng, 64, "AV", (0.3, 0.5), (0.3, 0.7))
    visible = mask_from_spec(spec)
    nprng = np.random.default_rng(rng.getrandbits(63))
    rows = []
    layers = []
    for layer in range(16):
        logits = nprng.normal(size=visible.shape)
        expd = np.where(visible, np.exp(logits - logits.max(axis=1, keepdims=True)), 0.0)
        weights = expd / expd.sum(axis=1, keepdims=True)
        layers.append(weights)
        rows.append({"data": weights.ravel().tolist(), "layer": layer,
                     "shape": list(weights.shape)})
    (out / f"{name}.spec.json").write_text(_dump(spec), encoding="utf-8")
    _write_jsonl(out / f"{name}.weights.jsonl", rows)
    return {"spec": f"{name}.spec.json", "weights": f"{name}.weights.jsonl",
            "expected": allocation(layers, spec_roles(spec), len(layers))}


def gen_attention(rng: random.Random, out: Path, cfg: dict) -> dict:
    reports = [_report_weights(rng, out, f"report_{i}") for i in range(cfg["report_layouts"])]

    def layout(key: str, length: int, heavy: bool) -> dict:
        _, spec = token_layout(rng, length, "AV", (0.45, 0.6) if heavy else (0.15, 0.3),
                               (0.6, 0.8) if heavy else (0.1, 0.3))
        visible = mask_from_spec(spec)
        (out / f"{key}.spec.json").write_text(_dump(spec), encoding="utf-8")
        return {"key": key, "spec": f"{key}.spec.json", "length": length,
                "heads": cfg["heads"], "dim": cfg["dim"], "items": cfg["heads"],
                "qkv_seed": rng.getrandbits(63), "leak_seed": rng.randrange(1 << 20),
                "blocking": "heavy" if heavy else "light",
                "blocked_fraction": blocked_fraction(visible),
                "blocked_tile_fraction": blocked_tile_fraction(visible),
                "report": reports[rng.randrange(len(reports))]}

    lengths = _lengths(rng, cfg["lengths"])
    pool = [layout(f"attn_{i:03d}", length, i % 2 == 0) for i, length in enumerate(lengths)]
    stats = dict(_layout_stats(pool), heads=cfg["heads"], dim=cfg["dim"])
    return {"warmup": layout("attn_warmup", min(lengths), True), "pool": pool, "stats": stats}


GENERATORS = {
    "annotate": gen_annotate,
    "rl_step": gen_rl_step,
    "mask": gen_mask,
    "attention": gen_attention,
}


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write the inputs of one run under ``out`` and return its manifest.

    The manifest lists the warm-up op and the pool of timed ops, each with
    its input file names and ground truth, plus input statistics. It is the
    benchmark's own file; the program only ever sees the input files.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    manifest = GENERATORS[workload](rng, out, SCALES[scale][workload])
    manifest.update(workload=workload, seed=seed, scale=scale)
    (out / "manifest.json").write_text(_dump(manifest), encoding="utf-8")
    return manifest
