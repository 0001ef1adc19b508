import importlib.util
import json
from pathlib import Path

from birkdag import io as bio
from birkdag.cli import build_parser

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_commands_parse_and_inputs_load():
    # the output set keeps up with the CLI: every command parses, and the
    # grid and specs it writes are accepted
    tool = load_tool()
    parser = build_parser()
    for args in tool.commands():
        parser.parse_args(args)
    bio.grid_from_json(json.dumps(tool.GRID))
    for spec in tool.SPECS.values():
        bio.spec_from_json(json.dumps(spec))
