"""Command-line front end.

    spbw smooth FILE [--json PATH]
    spbw check pbw FILE
    spbw check hypotheses FILE
    spbw calculus check FILE
    spbw normalize FILE EXPR
    spbw gkdim FILE [--max-degree M]
    spbw report FILE --json PATH
    spbw corpus [--write DIR]

FILE is a path to a ``.spbw`` document or ``corpus:NAME`` for a built-in
entry.  Pipeline options are set by the document's ``options`` line only.
``--max-degree`` (default 12, at least 1) is the depth of the growth table
that ``gkdim`` prints.  An option a command does not read is a usage
error.  Exit codes: 0 when a verdict or result was produced (including
not-certified), 1 when a check hard-failed, 2 on usage, parse or
configuration errors, a path that cannot be read or written among them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import CORPUS_NAMES, corpus_doc, corpus_source
from .dsl import ParseError, build_presentation, parse_expression, parse_presentation
from .errors import ConfigError, SpbwError
from .extended import hypothesis_check
from .gkdim import FAILED, filtration_dims, gk_estimate
from .pipeline import run_calculus_check, run_smooth

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _load_doc(args):
    """The document named by ``args.file``."""
    spec = args.file
    if spec.startswith("corpus:"):
        return corpus_doc(spec.split(":", 1)[1])
    try:
        source = Path(spec).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input: {exc}") from exc
    return parse_presentation(source)


def _cmd_smooth(args) -> int:
    report = run_smooth(_load_doc(args))
    if args.json:
        try:
            Path(args.json).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    sys.stdout.write(report.human_text())
    return EXIT_CHECK_FAILED if report.verdict == FAILED else EXIT_OK


def _cmd_report(args) -> int:
    if not args.json:
        raise ConfigError("report needs --json PATH")
    return _cmd_smooth(args)


def _cmd_check_pbw(args) -> int:
    P = build_presentation(_load_doc(args))
    audit = P.pbw_consistency_check()
    if audit.ok:
        print("pbw consistency: pass")
        return EXIT_OK
    print("pbw consistency: FAIL")
    print(f"  witness word: {audit.rendered}")
    print(f"  leftmost reduction:  {P.render(audit.left)}")
    print(f"  rightmost reduction: {P.render(audit.right)}")
    return EXIT_CHECK_FAILED


def _cmd_check_hypotheses(args) -> int:
    rep = hypothesis_check(build_presentation(_load_doc(args)))
    rows = [
        ("sigma/delta commute per generator", rep.h1_sigma_delta_diag),
        ("deltas commute pairwise", rep.h2_delta_delta),
        ("deltas commute with sigmas", rep.h3_delta_sigma),
        ("deltas kill relation constants", rep.h4_delta_kills_constants),
        ("pair relations trivial", rep.t1_relations_trivial),
        ("sigmas commute pairwise", rep.t2_sigma_sigma),
    ]
    for label, ok in rows:
        print(f"  {label:<36} {'ok' if ok else 'FAIL'}")
    print(f"lift block: {'pass' if rep.proposition_ok else 'fail'}; "
          f"plain-twist block: {'pass' if rep.theorem_ok else 'fail'}")
    for f in rep.failures:
        print(f"  detail: {f}")
    return EXIT_OK if rep.proposition_ok else EXIT_CHECK_FAILED


def _cmd_calculus(args) -> int:
    calc = run_calculus_check(_load_doc(args))
    print(f"calculus: compatible, dimension {calc.N}")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    doc = _load_doc(args)
    P = build_presentation(doc)
    result = parse_expression(doc, args.expr, P)
    print(P.render(result))
    return EXIT_OK


def _cmd_gkdim(args) -> int:
    if args.max_degree < 1:
        raise ConfigError(f"--max-degree must be at least 1, got {args.max_degree}")
    dims = filtration_dims(build_presentation(_load_doc(args)), args.max_degree)
    print(f"dimensions: {dims}")
    print(f"estimate: {gk_estimate(dims)}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    if args.write:
        target = Path(args.write)
        try:
            target.mkdir(parents=True, exist_ok=True)
            for name in CORPUS_NAMES:
                (target / f"{name}.spbw").write_text(corpus_source(name), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        print(f"wrote {len(CORPUS_NAMES)} files to {target}")
        return EXIT_OK
    for name in CORPUS_NAMES:
        print(name)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spbw", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def file_arg(p):
        p.add_argument("file", help="path to a .spbw document, or corpus:NAME")

    def pipeline_options(p):
        file_arg(p)
        p.add_argument("--json", default=None, help="also write the machine report here")

    p = sub.add_parser("smooth", help="run the full pipeline and print the verdict")
    pipeline_options(p)
    p.set_defaults(fn=_cmd_smooth)

    p = sub.add_parser("report", help="run the pipeline and write the machine report")
    pipeline_options(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("check", help="run one validation block")
    blocks = p.add_subparsers(dest="what", required=True)
    q = blocks.add_parser("pbw", help="compare the two maximal reduction strategies")
    file_arg(q)
    q.set_defaults(fn=_cmd_check_pbw)
    q = blocks.add_parser("hypotheses", help="evaluate the lifting and plain-twist hypotheses")
    file_arg(q)
    q.set_defaults(fn=_cmd_check_hypotheses)

    p = sub.add_parser("calculus", help="construct the calculus and verify compatibility")
    p.add_argument("what", choices=["check"])
    file_arg(p)
    p.set_defaults(fn=_cmd_calculus)

    p = sub.add_parser("normalize", help="reduce one expression to normal form")
    file_arg(p)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("gkdim", help="growth table and dimension estimate")
    file_arg(p)
    p.add_argument("--max-degree", type=int, default=12, help="depth of the printed table")
    p.set_defaults(fn=_cmd_gkdim)

    p = sub.add_parser("corpus", help="list or materialize the built-in corpus")
    p.add_argument("--write", default=None, help="write the corpus files into this directory")
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_CONFIG
    except SpbwError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
