"""Seeded synthetic corpus for the `synthetic-sim5` workload.

Writes three JSONL files into --out: `cases.jsonl` (gold dataset),
`script.jsonl` (scripted backend responses) and `expected.jsonl` (the
predicted flag set of every case-run, one record per case and configuration).
The expectations are derived here from the generated script alone, so they are
an oracle independent of the engine.

The corpus is built to reach every recovery path: orchestrator outputs in all
four JSON-recovery tiers, outputs that stay unusable (re-prompt, then the
seven-agent fallback), DROPPED and hard specialist faults, baseline replies
with missing lines, and long specialist rationales. It has no case-level
failures: orchestrator and baseline entries never carry a hard fault.

    python3 bench/corpus.py --seed 7 --out corpus
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

FLAGS = (
    "thunderclap",
    "meningismus",
    "papilledema",
    "temporal_arteritis",
    "systemic_illness",
    "focal_deficits",
    "first_worst_headache",
)
CONFIGS = ("single_qprompt", "single_gprompt", "multi_qprompt", "multi_gprompt")

FINDINGS = {
    "thunderclap": ["a sudden severe headache reaching maximal intensity within one minute",
                    "an abrupt headache peaking within seconds during exertion"],
    "meningismus": ["neck stiffness with pain on passive flexion",
                    "photophobia and nuchal rigidity since the morning"],
    "papilledema": ["bilateral optic disc swelling on fundoscopy",
                    "blurred disc margins with transient visual obscurations"],
    "temporal_arteritis": ["jaw claudication and scalp tenderness over the temporal artery",
                           "a thickened tender temporal artery and an ESR of 95 mm per hour"],
    "systemic_illness": ["fever, night sweats and unintentional weight loss",
                         "known metastatic cancer with a new pattern of headache"],
    "focal_deficits": ["new left arm weakness and dysarthria",
                       "a right homonymous visual field defect"],
    "first_worst_headache": ["what the patient calls the worst headache of their life",
                             "a headache unlike any experienced before"],
}
NEUTRAL = [
    "The headache is bilateral and pressing.",
    "Sleep has been poor for several weeks.",
    "Vital signs are within normal limits.",
    "There is a family history of migraine.",
    "Paracetamol gave partial relief.",
    "The patient works night shifts at a warehouse.",
    "Blood pressure is 128 over 82 mm Hg.",
    "Caffeine intake is around five cups a day.",
    "The pain is worse in the evening and eases after rest.",
    "Screen time has increased since a change of job.",
    "A previous CT scan two years ago was reported as normal.",
    "Hydration has been poor during a recent heat wave.",
]
REASONING = [
    "The guideline criteria for this domain were checked against each statement in the note.",
    "Onset, tempo, associated features and examination findings were considered in turn.",
    "Findings that are typical of primary headache were not counted toward this flag.",
    "The assessment relies only on what is documented, not on what might be inferred.",
    "Timing relative to exertion and the course over the following hours were reviewed.",
    "Laboratory values and imaging reports were weighed together with the history.",
]
# Shares of each choice. Every seed gets exactly these shares, dealt from a
# shuffled deck, so only their assignment to cases varies with the seed.
TRUTH_SIZES = ((0, 1 / 7), (1, 3 / 7), (2, 2 / 7), (3, 1 / 7))
ROUTE_STYLES = (("STRICT", 0.3), ("FENCED_BLOCK", 0.2), ("BRACE_SPAN", 0.15),
                ("REPAIRED", 0.15), ("UNUSABLE", 0.2))
SPECIALIST_FAULTS = (("DROPPED", 0.05), ("TIMEOUT", 0.01), ("HTTP_500", 0.01),
                     ("EMPTY", 0.01), ("MALFORMED_AS_GIVEN", 0.03))
BASELINE_SHAPES = (("EMPTY", 0.03), (1, 0.1), (2, 0.06))  # else all seven lines
FLIP_SHARE = 0.05  # decisions that disagree with the truth
LONG_SHARE = 0.3  # specialist replies with a long rationale
EXTRA_TARGET_SHARE, DROPPED_TARGET_SHARE = 0.25, 0.1
UNKNOWN_NAME_SHARE, DUPLICATE_NAME_SHARE = 0.15, 0.1
CASES = 200  # cases in a written corpus


def _deck(rng: random.Random, n: int, weighted, rest=None):
    """n draws with exact shares (to the nearest draw), shuffled; `rest` fills the
    share the weights leave over."""
    items = []
    for i in range(n):
        x, item = (i + 0.5) / n, rest
        for value, weight in weighted:
            if x < weight:
                item = value
                break
            x -= weight
        items.append(item)
    rng.shuffle(items)
    return iter(items)


def _flag(share: float):
    return ((True, share),)


def _vignette(rng: random.Random, case_id: str, truth: list[str], n_neutral: int) -> str:
    age = rng.randint(18, 89)
    who = rng.choice(["man", "woman"])
    rest = [f"There is {rng.choice(FINDINGS[flag])}." for flag in truth]
    rest += rng.choices(NEUTRAL, k=n_neutral)
    rng.shuffle(rest)
    return " ".join([f"Case {case_id}: a {age}-year-old {who} presents with headache.", *rest])


def _quotes(rng: random.Random, text: str, k: int) -> list[str]:
    words = text.split()
    out = []
    for _ in range(k):
        start = rng.randrange(max(1, len(words) - 4))
        out.append(" ".join(words[start:start + 4]))
    return out


def _single_quoted(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_single_quoted(v) for v in value) + "]"
    return "'" + value + "'"


class _Generator:
    def __init__(self, seed: int, n_cases: int):
        rng = self.rng = random.Random(seed)
        n, m = n_cases, n_cases * len(FLAGS)
        self.sizes = _deck(rng, n, TRUTH_SIZES)
        self.neutral = _deck(rng, n, [(k, 1 / 17) for k in range(17)])
        self.styles = _deck(rng, n, ROUTE_STYLES)
        self.extra = _deck(rng, n, _flag(EXTRA_TARGET_SHARE), False)
        self.drop = _deck(rng, n, _flag(DROPPED_TARGET_SHARE), False)
        self.unknown = _deck(rng, n, _flag(UNKNOWN_NAME_SHARE), False)
        self.duplicate = _deck(rng, n, _flag(DUPLICATE_NAME_SHARE), False)
        self.faults = _deck(rng, m, SPECIALIST_FAULTS)
        self.flips = _deck(rng, 2 * m, _flag(FLIP_SHARE), False)
        self.long = _deck(rng, m, _flag(LONG_SHARE), False)
        self.baseline_shapes = _deck(rng, n, BASELINE_SHAPES, 0)
        self.turns = {}  # per kind of reply, rotates through its variants

    def _rotate(self, kind: str, options):
        self.turns[kind] = self.turns.get(kind, -1) + 1
        return options[self.turns[kind] % len(options)]

    def orchestrator(self, text: str, truth: list[str]):
        """Return (response, fault, routed flags as the engine will honor them)."""
        rng = self.rng
        targets = list(truth)
        if next(self.extra):
            targets.append(rng.choice(FLAGS))
        if next(self.drop) and targets:
            targets.pop(rng.randrange(len(targets)))
        listed = list(targets)
        if next(self.unknown):
            listed.insert(rng.randrange(len(listed) + 1), "neurosurgery")
        if next(self.duplicate) and listed:
            listed.append(listed[0])
        style = next(self.styles)
        if style == "UNUSABLE":  # unusable twice: re-prompt, then the seven-agent fallback
            response, fault = self._rotate("unusable", [
                ("", "EMPTY"),
                ("I could not determine which specialists to consult for this note.", None),
                ('{"routing": ' + json.dumps(targets) + "}", None),
                ("{next: [" + ", ".join(targets) + "]}", None),
            ])
            return response, fault, list(FLAGS)
        routed = list(dict.fromkeys(f for f in listed if f in FLAGS))
        doc = {"next": listed, "why": "findings in the note match these domains",
               "evidence": _quotes(rng, text, rng.randint(0, 3))}
        if len(listed) == 1 and rng.random() < 0.3:
            doc["next"] = listed[0]
        if style == "STRICT":
            response = json.dumps(doc)
        elif style == "FENCED_BLOCK":
            response = ("Here is the routing decision:\n```json\n" + json.dumps(doc, indent=2)
                        + "\n```\nLet me know if anything else is needed.")
        elif style == "BRACE_SPAN":
            response = f"Based on my reading of the note, the routing is {json.dumps(doc)} as required."
        else:  # REPAIRED: single quotes and a trailing comma, so only the repair set parses it
            body = ", ".join(f"'{k}': {_single_quoted(v)}" for k, v in doc.items())
            response = "Routing: {" + body + ",}"
        return response, None, routed

    def specialist(self, flag: str, text: str, truth: list[str]):
        """Return (response, fault, decision the reply parses to, None for ERROR)."""
        rng = self.rng
        word = "YES" if (flag in truth) != next(self.flips) else "NO"
        fault = next(self.faults)
        long = next(self.long)
        if fault == "EMPTY":
            return "", fault, None
        if fault == "MALFORMED_AS_GIVEN":
            return self._rotate("malformed", [
                ("Unable to assess this domain from the vignette as written.", fault, None),
                (json.dumps({"decision": word, "domain": flag}), fault, word),
            ])
        quotes = _quotes(rng, text, rng.randint(1, 3))
        if long:
            sentences = rng.choices(REASONING, k=rng.randint(4, 10))
            sentences += [f'The note states "{q}".' for q in quotes]
            rationale = " ".join(sentences)
        else:
            rationale = f'The note documents "{quotes[0]}" for the {flag} criteria.'
        return f"{word}. {rationale}", fault, word

    def baseline(self, text: str, truth: list[str]):
        """Return (response, fault, {flag: decision}) with ERROR flags left out."""
        rng = self.rng
        shape = next(self.baseline_shapes)
        if shape == "EMPTY":
            return "", "EMPTY", {}
        flags = list(FLAGS)
        for _ in range(shape):
            flags.remove(rng.choice(flags))
        decisions = {}
        lines = ["Assessment of each red flag:"]
        for flag in flags:
            yes = (flag in truth) != next(self.flips)
            decisions[flag] = "YES" if yes else "NO"
            name = flag.capitalize() if rng.random() < 0.2 else flag
            prefix = rng.choice(["", "", "- ", "1. "])
            word = decisions[flag] if rng.random() < 0.8 else decisions[flag].lower()
            reason = f'"{_quotes(rng, text, 1)[0]}"' if yes else "not documented"
            lines.append(f"{prefix}{name}: {word} — {reason}")
        return "\n".join(lines), None, decisions


def generate(seed: int, n_cases: int):
    """Return (cases, script, expected) record lists for one seed."""
    gen = _Generator(seed, n_cases)
    cases, script, expected = [], [], []
    for i in range(n_cases):
        case_id = f"s{seed}-{i:04d}"
        truth = sorted(gen.rng.sample(FLAGS, next(gen.sizes)), key=FLAGS.index)
        text = _vignette(gen.rng, case_id, truth, next(gen.neutral))
        cases.append({"id": case_id, "text": text, "red_flags": truth})

        def entry(role, response, fault):
            record = {"case_id": case_id, "agent_role": role, "response": response}
            if fault:
                record["fault"] = fault
            script.append(record)

        response, fault, routed = gen.orchestrator(text, truth)
        entry("orchestrator", response, fault)
        multi = {"multi_qprompt": [], "multi_gprompt": []}
        for flag in FLAGS:
            response, fault, word = gen.specialist(flag, text, truth)
            entry(flag, response, fault)
            if fault in ("TIMEOUT", "HTTP_500"):
                word = None
            for config, yes in multi.items():
                # One scripted backend serves the whole matrix, so a DROPPED entry fails
                # only on its first call, made by multi_qprompt (the first multi-agent
                # row). Unrouted, that call happens in fan-out, where a drop is final.
                dropped = fault == "DROPPED" and config == "multi_qprompt" and flag not in routed
                if word == "YES" and not dropped:
                    yes.append(flag)
        response, fault, decisions = gen.baseline(text, truth)
        entry("baseline", response, fault)
        single = [f for f in FLAGS if decisions.get(f) == "YES"]
        for config in CONFIGS:
            predicted = single if config.startswith("single") else multi[config]
            expected.append({"case_id": case_id, "config": config, "predicted": sorted(predicted)})
    return cases, script, expected


def write_corpus(seed: int, out) -> dict[str, Path]:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, records in zip(("cases", "script", "expected"), generate(seed, CASES)):
        paths[name] = out / f"{name}.jsonl"
        with paths[name].open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in write_corpus(args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
