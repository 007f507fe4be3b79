"""Command-line front end.

Subcommands: entropy, mmi, circuit, classify, census, report.
The per-state commands (entropy, mmi, circuit, classify) take 1 to 8 qubits.
Exit codes: 0 success, 1 usage error (an unwritable output path included),
2 input parse error, 3 size cap exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import graphs as graphmod
from . import tableau as tabmod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# qubit cap of the per-state commands: the paper's largest size
MAX_QUBITS = 8


class UsageError(Exception):
    pass


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _render_subset(mask: int) -> str:
    return "+".join(str(v + 1) for v in range(mask.bit_length()) if (mask >> v) & 1)


def _subset_names(n: int) -> list[str]:
    """`_render_subset` of every mask below 2^n, indexed by mask."""
    return [_render_subset(mask) for mask in range(1 << n)]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, where: str):
    """json.loads, with a malformed or too deeply nested text a ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_source(path: str, fmt: str | None = None):
    """Read a Graph or Tableau from .g6 / .json / .txt input; CapExceeded if
    its qubit count is outside the per-state cap."""
    p = Path(path)
    text = _read_text(path)
    suffix = (fmt or p.suffix.lstrip(".")).lower()
    try:
        if suffix == "g6":
            g = graphmod.from_graph6(text)
            _check_qubits(g.n)
            return g
        if suffix == "json":
            data = _parse_json(text, path)
            if "edges" in data:
                n = data["n"]
                if type(n) is not int:  # not 3.5, "3" or true: bool is an int subclass
                    raise ParseError(f"{path}: 'n' must be an integer, got {n!r}")
                _check_qubits(n)  # before Graph's O(n²) validation
                return graphmod.from_edges(n, [tuple(e) for e in data["edges"]])
            if "tableau" in data:
                rows = data["tableau"]
                if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
                    raise ParseError(f"{path}: 'tableau' must be a list of row strings")
                return _parse_tableau(rows)
            raise ParseError(f"{path}: JSON needs an 'edges' or 'tableau' key")
        if suffix == "txt":
            return _parse_tableau([ln.strip() for ln in text.splitlines() if ln.strip()])
    except (ParseError, graphmod.CapExceeded):
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    raise UsageError(f"cannot infer format of {path}; pass --format g6|json|txt")


def _parse_tableau(rows: list[str]):
    """parse_tableau, once its row count (the qubit count) is within the cap:
    parsing and checking a tableau costs O(n²) or more."""
    if rows:  # no rows at all is a parse error
        _check_qubits(len(rows))
    return tabmod.parse_tableau(rows)


def _check_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise graphmod.CapExceeded(f"per-state commands take 1 to {MAX_QUBITS} qubits, got {n}")


def cmd_entropy(args) -> int:
    from . import entropy as entmod
    source = load_source(args.input, args.format)
    ev = entmod.entropy_vector(source)
    canon = entmod.canonicalize(ev)
    print(ev.to_json(canonical=False))
    print(canon.to_json(canonical=True))
    return EXIT_OK


# text of each `entropy.instance_signs` entry
_OUTCOME = {sign: graphmod.MmiOutcome.of_sign(sign).value for sign in (1, 0, -1)}


def cmd_mmi(args) -> int:
    from . import entropy as entmod
    source = load_source(args.input, args.format)
    ev = entmod.entropy_vector(source)
    include = not args.skip_full_union
    names = _subset_names(ev.n)
    signs = entmod.instance_signs(ev, include)
    lines = ["instance-I,instance-J,instance-K,outcome"]
    lines += [
        f"{names[i]},{names[j]},{names[k]},{_OUTCOME[sign]}"
        for (_, _, _, i, j, k, _), sign in zip(entmod.mmi_table(ev.n, include), signs)
    ]
    lines.append("tally," + ",".join(map(str, entmod.MmiTally.of_signs(signs).as_triple())))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# gate name -> (operand count, tableau update)
GATES = {
    "H": (1, tabmod.apply_h),
    "S": (1, tabmod.apply_s),
    "CNOT": (2, tabmod.apply_cnot),
    "CZ": (2, tabmod.apply_cz),
}


def _parse_gate_line(line: str, lineno: int) -> tuple[str, tuple[int, ...]]:
    name, *operands = line.split()
    name = name.upper()
    try:
        if GATES[name][0] == len(operands):
            return name, tuple(map(int, operands))
    except (KeyError, ValueError):
        pass
    raise ParseError(f"line {lineno}: malformed gate line {line!r}")


def cmd_circuit(args) -> int:
    from . import entropy as entmod
    gates = [
        (i + 1, *_parse_gate_line(ln.strip(), i + 1))
        for i, ln in enumerate(_read_text(args.script).splitlines())
        if ln.strip() and not ln.strip().startswith("#")
    ]
    n = args.n if args.n is not None else max([1, *(q for _, _, ops in gates for q in ops)])
    _check_qubits(n)
    t = tabmod.zero_state(n)
    table = entmod.mmi_table(n, True)
    names = _subset_names(n)
    ev = entmod.entropy_vector(t)
    signs = entmod.instance_signs(ev)
    out = ["initial ranks: " + _render_ranks(ev, names)]  # written once every gate has applied
    for lineno, name, operands in gates:
        try:
            t = GATES[name][1](t, *operands)
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        prev, ev = ev, entmod.entropy_vector(t)
        out.append(f"after {name} {' '.join(map(str, operands))}: " + _render_ranks(ev, names))
        if ev.values == prev.values:  # equal vectors have equal signs
            continue
        now = entmod.instance_signs(ev)
        for (_, _, _, i, j, k, _), before, after in zip(table, signs, now):
            if before != after:
                out.append(
                    f"  MMI({names[i]};{names[j]};{names[k]}): "
                    f"{_OUTCOME[before]} -> {_OUTCOME[after]}"
                )
        signs = now
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def _render_ranks(ev, names: list[str]) -> str:
    """The tableau rank R_A of every subsystem A, as S_A + |A|."""
    return " ".join(f"{names[mask]}={ev[mask] + mask.bit_count()}" for mask in range(1, 1 << ev.n))


def cmd_classify(args) -> int:
    from . import star as starmod
    g = load_source(args.input, args.format)
    if not isinstance(g, graphmod.Graph):
        raise ParseError("classify needs a graph input")
    if args.partition:
        data = _parse_json(args.partition, "bad partition")
        if not isinstance(data, dict) or data.keys() - {"C", "I", "J", "K"}:
            raise ParseError("bad partition: expected an object with keys C, I, J and K only")
        try:
            p = starmod.StarPartition.from_sets(
                g.n, data["C"], data["I"], data["J"], data["K"]
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"bad partition: {exc}") from exc
        if not starmod.is_generalized_star(g, p):
            raise ParseError("explicit partition is not a generalized star")
    else:
        p = starmod.find_star_partition(g)
        if p is None:
            print(json.dumps({"result": "no qualifying partition"}))
            return EXIT_OK
    print(starmod.classify(g, p).to_json(p))
    return EXIT_OK


def _write(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_census(args) -> int:
    # a flag that the chosen mode would ignore is an error, not a no-op
    if args.classes is None:
        if args.source is not None:
            raise UsageError("--source applies only to --classes")
        if args.json:
            raise UsageError("--json applies only to --classes")
    # the size caps, before the census module loads numpy
    for n, source in (
        (args.table14, "groups"),
        (args.classes, args.source or "groups"),
        (args.scan_four_star, "graphs"),
        (args.scan_intersection, "graphs"),
    ):
        if n is not None:
            graphmod.check_census_size(n, source)
    from . import census as censusmod
    if args.table14 is not None:
        row = censusmod.state_census(args.table14)
        lines = [
            "n,total_states,saturate_all,satisfy_some_fail_none,fail_some,"
            "distinct_vectors,classes,failing_vectors",
            f"{row.n},{row.total_states},{row.saturate_all},"
            f"{row.satisfy_some_fail_none},{row.fail_some},{row.distinct_vectors},"
            f"{row.classes_up_to_exchange},{row.failing_vector_count}",
        ]
        _write(args.output, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.classes is not None:
        result = censusmod.vector_census(args.classes, source=args.source or "groups")
        records = [
            {
                "class_id": cid,
                "canonical_vector": list(canon),
                "state_count": info.state_count,
                "member_vectors": info.member_vectors,
                "satisfies": info.tally.satisfies,
                "saturates": info.tally.saturates,
                "fails": info.tally.fails,
                "representative_graph6": (
                    None if info.representative is None else graphmod.to_graph6(info.representative)
                ),
            }
            for cid, (canon, info) in enumerate(sorted(result.classes.items()), start=1)
        ]
        if args.json:
            text = json.dumps({"n": args.classes, "classes": records}, sort_keys=True, indent=1)
        else:
            text = "\n".join(
                ["class_id,canonical_vector,state_count,satisfies,saturates,fails"]
                + [
                    f"{r['class_id']},{' '.join(map(str, r['canonical_vector']))},"
                    f"{r['state_count']},{r['satisfies']},{r['saturates']},{r['fails']}"
                    for r in records
                ]
            )
        _write(args.output, text + "\n")
        return EXIT_OK
    if args.scan_four_star is not None:
        report = censusmod.four_star_conjecture_scan(args.scan_four_star)
    else:
        report = censusmod.nontrivial_intersection_scan(args.scan_intersection)
    _write(args.output, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    data = _parse_json(_read_text(args.census), args.census)
    if not isinstance(data, dict) or not isinstance(data.get("classes"), list):
        raise ParseError(f"{args.census}: expected an object with a 'classes' list")
    pages = {}  # class id -> HTML page
    try:
        for rec in data["classes"]:
            cid, g6 = rec["class_id"], rec.get("representative_graph6")
            if type(cid) is not int:  # it names a file; bool is an int subclass
                raise TypeError(f"class_id {cid!r} is not an integer")
            if cid in pages:  # a second page would overwrite the first
                raise ValueError(f"class_id {cid} appears twice")
            graph = graphmod.from_graph6(g6) if g6 else None
            edges = ", ".join(f"({u},{v})" for u, v in graph.edges()) if g6 else ""
            pages[cid] = (
                f"<html><head><title>Class {cid}</title></head><body>"
                f"<h1>Class {cid}</h1>"
                f"<p>Canonical vector: {' '.join(map(str, rec['canonical_vector']))}</p>"
                f"<p>Representative graph6: <code>{g6 or 'n/a'}</code></p>"
                f"<p>Edges: {edges or 'n/a'}</p>"
                "<p>Tally (satisfies, saturates, fails): "
                f"({rec['satisfies']}, {rec['saturates']}, {rec['fails']})</p>"
                f"<p>State count: {rec['state_count']}</p>"
                '<p><a href="index.html">index</a></p>'
                "</body></html>"
            )
        items = "".join(f'<li><a href="class-{cid}.html">Class {cid}</a></li>' for cid in pages)
        files = {f"class-{cid}.html": page for cid, page in pages.items()}
        files["index.html"] = (
            "<html><head><title>Census n={n}</title></head><body>"
            "<h1>Entropy-vector classes, n={n}</h1><ul>{items}</ul></body></html>"
        ).format(n=data.get("n", "?"), items=items)
        # every file is encoded before any is written: a JSON escape such as
        # "\udcff" decodes to a lone surrogate, which UTF-8 cannot encode
        for name, page in files.items():
            files[name] = page.encode()
    except UnicodeEncodeError as exc:  # its repr holds the whole page
        raise ParseError(f"{args.census}: malformed census: {name}: {exc.reason}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{args.census}: malformed census: {exc!r}") from exc
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            (outdir / name).write_bytes(body)
    except OSError as exc:
        raise UsageError(f"cannot write to {outdir}: {exc}") from exc
    print(f"wrote {len(files)} pages to {outdir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="stabmmi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph (.g6/.json) or tableau (.json/.txt) file")
        p.add_argument("--format", choices=["g6", "json", "txt"])

    p = sub.add_parser("entropy", help="full and canonical entropy vector as JSON")
    add_input(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("mmi", help="per-instance MMI table and tally (CSV)")
    add_input(p)
    p.add_argument("--skip-full-union", action="store_true")
    p.set_defaults(func=cmd_mmi)

    p = sub.add_parser("circuit", help="apply a gate script to |0...0>")
    p.add_argument("script", help="text file of 'H a' | 'S a' | 'CNOT a b' | 'CZ a b'")
    p.add_argument("-n", type=int, help="qubit count, 1 to 8 (default: highest used)")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("classify", help="generalized-star classification JSON")
    add_input(p)
    p.add_argument(
        "--partition",
        help='explicit partition JSON: {"C":[..],"I":[..],"J":[..],"K":[..]}',
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="census tables and conjecture scans", description=(
        "Census tables and conjecture scans (graphs N <= 7; groups N <= 6), in one process: the"
        " entropy kernel runs once per class of one local-complementation sweep; --scan-four-star"
        " tests each failing vector's orbit in edge-mask order for an induced four-star, and"
        " --scan-intersection searches one graph per relabeling class failing no MMI instance."))
    p.add_argument(
        "--source", choices=["graphs", "groups"], help="family that --classes counts (default groups)"
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table14", type=int, metavar="N")
    mode.add_argument("--classes", type=int, metavar="N")
    mode.add_argument("--scan-four-star", type=int, metavar="N")
    mode.add_argument("--scan-intersection", type=int, metavar="N")
    p.add_argument("--json", action="store_true", help="JSON output for --classes")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("report", help="static HTML catalog from census JSON")
    p.add_argument("census", help="JSON produced by census --classes --json")
    p.add_argument("-d", "--output-dir", default="report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except graphmod.CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
