"""Command-line entry point.

    rumourlens <command> --config <file> [--seed N] [--alpha F] [--out DIR]

Commands: one per stage of `pipeline.STAGES`, all, convert-dic and
fetch-sentic. Config keys can also be set through
RUMOURLENS_<KEY> environment variables; command-line flags win over
both. Exit status is 0 on success, 2 for configuration problems and 1
for any other failure.
"""

from __future__ import annotations

import argparse
import sys

from . import lexicon, pipeline, senticnet
from .config import build_config, parse_config_file
from .errors import ConfigError, RumourLensError
from .textprep import open_utf8


def _add_stage_parser(sub, name: str, help_text: str):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None, help="output directory (out_dir)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rumourlens", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in pipeline.STAGES.items():
        _add_stage_parser(sub, name, stage.help)
    _add_stage_parser(sub, "all", "run the whole pipeline in order")

    conv = sub.add_parser("convert-dic", help="convert a .dic dictionary to the JSON lexicon format")
    conv.add_argument("dic_path")
    conv.add_argument("json_path")

    fetch = sub.add_parser("fetch-sentic", help="fetch concepts from a sentic API into a CSV table")
    fetch.add_argument("--url", required=True)
    fetch.add_argument("--concepts", required=True, help="file with one concept per line")
    fetch.add_argument("--out", required=True, help="CSV cache to write")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "convert-dic":
            lex = lexicon.convert_dic(args.dic_path, args.json_path)
            print(f"wrote {args.json_path} ({len(lex.categories)} categories)")
            return 0
        if args.command == "fetch-sentic":
            with open_utf8(args.concepts) as fh:
                concepts = [ln.strip() for ln in fh if ln.strip()]
            table = senticnet.fetch_concepts(args.url, concepts, cache_path=args.out)
            print(f"wrote {args.out} ({len(table)} concepts)")
            return 0

        overrides = {"seed": args.seed, "alpha": args.alpha, "out_dir": args.out}
        cfg = build_config(parse_config_file(args.config), overrides=overrides)
        for path in getattr(pipeline, f"stage_{args.command}")(cfg):
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except RumourLensError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
