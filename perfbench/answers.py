"""Answer checks on top of the certificate checks the JVM runs.

Every seed: a solve's answer must equal the answer of the same solve in
every other pass of the run (the solvers are deterministic).
Seed 0: it must also match the answer recorded in expected/seed0.json.
An objective (f, rho, EgoScan weight) may rise above its record but not
fall; the DCSGreedy ratio may fall but not rise; the chosen set may differ
only where its objective rose. Work counts (inits, clique counts) are not
answers and are not compared.
"""
import json
from pathlib import Path

RISE = {"f", "seacd_f", "sea_f", "dcs_rho", "ego_w"}
FALL = {"dcs_ratio"}
TIED = {"support": "f", "seacd_support": "seacd_f", "dcs_size": "dcs_rho", "dcs_set": "dcs_rho", "ego_size": "ego_w"}
IGNORED = {"inits", "seacd_cliques", "sea_cliques"}
TOL = 1e-9


def close(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def rose(rec, cur, field):
    return cur.get(field, 0) > rec.get(field, 0) + TOL * max(1.0, abs(rec.get(field, 0)))


def compare(rec, cur):
    """Ways `cur` falls short of the recorded answer `rec`."""
    errs = []
    for field, want in rec.items():
        if field in IGNORED:
            continue
        if field not in cur:
            errs.append(f"{field} missing")
            continue
        got = cur[field]
        if field in RISE:
            if got < want - TOL * max(1.0, abs(want)):
                errs.append(f"{field} fell: {got} < recorded {want}")
        elif field in FALL:
            if got > want + TOL * max(1.0, abs(want)):
                errs.append(f"{field} rose: {got} > recorded {want}")
        elif field in TIED:
            if not rose(rec, cur, TIED[field]) and not close(got, want):
                errs.append(f"{field} = {got}, recorded {want}")
        elif field == "topics":
            words = [t["words"] for t in got]
            if words != [t["words"] for t in want]:
                errs.append(f"topics {words}, recorded {[t['words'] for t in want]}")
            elif any(g["f"] < w["f"] - TOL * max(1.0, abs(w["f"])) for g, w in zip(got, want)):
                errs.append("a topic's f fell below its record")
        elif not close(got, want):
            errs.append(f"{field} = {got}, recorded {want}")
    return errs


def load(path):
    path = Path(path)
    return json.loads(path.read_text()) if path.is_file() else {}


def check(solves, recorded):
    """Maps the index of every solve to its list of failed checks."""
    first = {}
    out = {}
    for i, s in enumerate(solves):
        errs = list(s["errors"])
        ans = s["answer"]
        if ans is not None:
            if s["key"] in first and not close(first[s["key"]], ans):
                errs.append("answer differs from this solve's answer in an earlier pass")
            first.setdefault(s["key"], ans)
            if recorded is not None:
                rec = recorded.get(s["key"])
                errs += ["no recorded answer"] if rec is None else compare(rec, ans)
        out[i] = errs
    return out


def record(path, workload, solves):
    """Stores the answers of the first measured pass as the seed-0 record."""
    data = load(path)
    first_pass = min(s["pass"] for s in solves if not s["warmup"])
    data[workload] = {s["key"]: s["answer"] for s in solves if s["pass"] == first_pass}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
