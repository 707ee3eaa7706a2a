"""Command-line front end.

Exit codes: 0 pass/success, 1 verdict FAIL (or NEITHER), 2 usage/parse/IO
errors, 3 UNDECIDED (admissible mode).  Reports print as text by default and
as JSON with ``--json``.  A config file can be named with ``--config`` or the
``HOQ_CONFIG`` environment variable; ``--registry`` supplies inline
``LABEL=DIM`` entries on top of it.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import click

from . import processes
from .errors import HoqError
from .linalg import permute_systems
from .membership import classify as classify_op
from .membership import is_admissible, is_deterministic
from .network import NetworkSpec, compose_network, decompose_network
from .sectors import Hierarchy, deviation_sectors, identity_coeff
from .serialize import (
    Config,
    load_config,
    parse_inline_registry,
    read_bundle,
    read_operator,
    spec_from_dict,
    write_bundle,
    write_operator,
)
from .typesys import SystemRegistry, dehat, parse_type


@dataclass
class Context:
    config: Config
    registry: SystemRegistry


def _build_context(config_path, registry_inline) -> Context:
    path = config_path or os.environ.get("HOQ_CONFIG")
    cfg = load_config(path) if path else Config()
    reg = cfg.registry
    if registry_inline:
        reg = reg.with_entries(**parse_inline_registry(registry_inline))
    return Context(cfg, reg)


def _hierarchy(name: str) -> Hierarchy:
    return Hierarchy.STANDARD if name == "standard" else Hierarchy.BISTOCH


class HoqGroup(click.Group):
    """Translate toolkit errors into exit code 2 with a clean message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (HoqError, ValueError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


common_options = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Config file (default: $HOQ_CONFIG)."),
    click.option("--registry", "registry_inline", default=None,
                 help="Inline registry, e.g. 'A=2,B=2,P=4,F=4'."),
]


def with_common(f):
    for opt in reversed(common_options):
        f = opt(f)
    return f


@click.group(cls=HoqGroup)
def main():
    """Verify and construct higher-order transformations of bidirectional
    quantum channels."""


@main.command("lambda")
@click.argument("type_string")
@with_common
def cmd_lambda(type_string, config_path, registry_inline):
    """Print the exact identity coefficient of a type."""
    ctx = _build_context(config_path, registry_inline)
    t = parse_type(type_string, ctx.registry, limit=ctx.config.recursion)
    click.echo(str(identity_coeff(t, ctx.registry)))


@main.command("delta")
@click.argument("type_string")
@click.option("--hierarchy", type=click.Choice(["bistoch", "standard"]),
              default="bistoch", show_default=True)
@with_common
def cmd_delta(type_string, hierarchy, config_path, registry_inline):
    """Print the allowed sector patterns of a type, one per line."""
    ctx = _build_context(config_path, registry_inline)
    t = parse_type(type_string, ctx.registry, limit=ctx.config.recursion)
    if hierarchy == "standard":
        t = dehat(t)
    sectors = deviation_sectors(t, ctx.registry, _hierarchy(hierarchy))
    for line in sectors.texts():
        click.echo(line)


@main.command("check")
@click.argument("type_string", required=False)
@click.option("-f", "--file", "operator_file", required=True, type=click.Path(exists=True))
@click.option("--hierarchy", type=click.Choice(["bistoch", "standard"]),
              default="bistoch", show_default=True)
@click.option("--network-spec", "network_spec_file", type=click.Path(exists=True),
              help="Check against a network spec JSON instead of a type.")
@click.option("--admissible", is_flag=True,
              help="Test admissibility (domination by a deterministic event).")
@click.option("--json", "as_json", is_flag=True)
@with_common
def cmd_check(type_string, operator_file, hierarchy, network_spec_file,
              admissible, as_json, config_path, registry_inline):
    """Test an operator file against a type or a network specification."""
    if bool(type_string) == bool(network_spec_file):
        raise click.UsageError("give either a TYPE argument or --network-spec, not both")
    ctx = _build_context(config_path, registry_inline)
    cfg = ctx.config
    if network_spec_file:
        with open(network_spec_file, encoding="utf-8") as fh:
            t = spec_from_dict(json.load(fh), ctx.registry)
        if hierarchy == "standard":
            t = NetworkSpec(tuple(dehat(x) for x in t.slot_types), t.memories)
    else:
        t = parse_type(type_string, ctx.registry, limit=cfg.recursion)
        if hierarchy == "standard":
            t = dehat(t)
    op = read_operator(operator_file, max_dim=cfg.max_dim)
    if admissible:
        result = is_admissible(op, t, ctx.registry, _hierarchy(hierarchy),
                               tol=cfg.tol_feas, max_iter=cfg.max_iter,
                               psd_tol=cfg.tol_psd, herm_tol=cfg.tol_herm)
        payload = {"status": result.status, "residual": result.residual,
                   "iterations": result.iterations, "reason": result.reason}
        click.echo(json.dumps(payload) if as_json else
                   f"{result.status} (residual {result.residual:.3e}, "
                   f"{result.iterations} iterations) {result.reason}")
        sys.exit({"FEASIBLE": 0, "NOT_ADMISSIBLE": 1}.get(result.status, 3))
    report = is_deterministic(op, t, ctx.registry, _hierarchy(hierarchy),
                              tol=cfg.tol_sector, psd_tol=cfg.tol_psd,
                              herm_tol=cfg.tol_herm)
    click.echo(json.dumps(report.to_dict()) if as_json else report.to_text())
    sys.exit(0 if report.passed else 1)


@main.command("classify")
@click.argument("type_string")
@click.option("-f", "--file", "operator_file", required=True, type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
@with_common
def cmd_classify(type_string, operator_file, as_json, config_path, registry_inline):
    """Classify an operator as BOTH / BISTOCH_ONLY / NEITHER."""
    ctx = _build_context(config_path, registry_inline)
    cfg = ctx.config
    t = parse_type(type_string, ctx.registry, limit=cfg.recursion)
    op = read_operator(operator_file, max_dim=cfg.max_dim)
    result = classify_op(op, t, ctx.registry, tol=cfg.tol_sector, psd_tol=cfg.tol_psd,
                         herm_tol=cfg.tol_herm)
    if as_json:
        click.echo(json.dumps({
            "verdict": result.verdict,
            "forbidden": [[p, n] for p, n in result.forbidden],
            "bistoch": result.bistoch_report.to_dict(),
            "standard": result.standard_report.to_dict(),
        }))
    else:
        click.echo(result.verdict)
        for pat, norm in result.forbidden:
            click.echo(f"  {pat}   norm {norm:.6e}")
    sys.exit(0 if result.verdict in ("BOTH", "BISTOCH_ONLY") else 1)


@main.command("make")
@click.argument("process", type=click.Choice(
    ["time-flip", "n-time-flip", "flip-switch", "lc23", "lc22", "random-bistoch"]))
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--d", "dim", type=int, default=2, show_default=True,
              help="Local dimension.")
@click.option("--n", "slots", type=int, default=2, show_default=True,
              help="Slot count (n-time-flip) or local dimension (lc23).")
@click.option("--x", type=int, default=0, show_default=True, help="lc22 level x.")
@click.option("--y", type=int, default=1, show_default=True, help="lc22 level y.")
@click.option("--tail-in", type=int, default=1, show_default=True)
@click.option("--tail-out", type=int, default=1, show_default=True)
@click.option("--k", type=int, default=3, show_default=True,
              help="Mixture terms for random-bistoch.")
@click.option("--seed", type=int, default=0, show_default=True)
@with_common
def cmd_make(process, output, dim, slots, x, y, tail_in, tail_out, k, seed,
             config_path, registry_inline):
    """Construct a canonical process and write its operator JSON.

    Emitted factors follow the canonical order of the process type, with
    target and control ports fused into single P and F factors.
    """
    ctx = _build_context(config_path, registry_inline)
    if process == "time-flip":
        op = _canonical_flip(processes.time_flip_choi(dim), 1)
    elif process == "n-time-flip":
        op = _canonical_flip(
            processes.n_time_flip_choi(slots, dim, dim_cap=ctx.config.max_dim), slots)
    elif process == "flip-switch":
        op = _canonical_flip(processes.flippable_switch_choi(dim), 2)
    elif process == "lc23":
        op = processes.lc_23_process(slots)
    elif process == "lc22":
        op = processes.lc_22_process(dim, x, y)
    else:
        op = processes.random_bistochastic_channel(dim, tail_in, tail_out, k=k, seed=seed)
    write_operator(op, output)
    click.echo(f"wrote {output}: factors {list(op.labels)}, dim {op.dim}")


def _canonical_flip(op, n):
    merged = processes.merge_ports(op, {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    if n == 1 and "A" in merged.labels:
        order = ["A", "B", "P", "F"]
    else:
        order = []
        for i in range(1, n + 1):
            order += [f"A{i}", f"B{i}"]
        order += ["P", "F"]
    return permute_systems(merged, order)


@main.command("apply-flip")
@click.option("--channel", "channel_file", required=True, type=click.Path(exists=True))
@click.option("--state", "state_file", required=True, type=click.Path(exists=True))
@click.option("--control", "control_file", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@with_common
def cmd_apply_flip(channel_file, state_file, control_file, output,
                   config_path, registry_inline):
    """Run a channel through the direction flip on given target and control states."""
    max_dim = _build_context(config_path, registry_inline).config.max_dim
    chan = read_operator(channel_file, max_dim=max_dim)
    rho = read_operator(state_file, max_dim=max_dim)
    omega = read_operator(control_file, max_dim=max_dim)
    out = processes.time_flip_apply(chan, rho, omega)
    write_operator(out, output)
    click.echo(f"wrote {output}: factors {list(out.labels)}, trace {out.trace().real:.12g}")


@main.command("compose")
@click.argument("bundle_file", type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@with_common
def cmd_compose(bundle_file, output, config_path, registry_inline):
    """Chain the blocks of a network bundle and write the composed operator."""
    ctx = _build_context(config_path, registry_inline)
    blocks, spec, reg = read_bundle(bundle_file, ctx.registry, max_dim=ctx.config.max_dim)
    composed = compose_network(blocks, spec, reg, tol=ctx.config.tol_sector)
    write_operator(composed, output)
    click.echo(f"wrote {output}: factors {list(composed.labels)}, dim {composed.dim}")


@main.command("decompose")
@click.option("--spec", "spec_file", required=True, type=click.Path(exists=True),
              help="Network spec JSON: {slot_types: [...], memories: [...]}.")
@click.option("-f", "--file", "operator_file", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@with_common
def cmd_decompose(spec_file, operator_file, output, config_path, registry_inline):
    """Peel a network operator into blocks and write them as a bundle."""
    ctx = _build_context(config_path, registry_inline)
    with open(spec_file, encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh), ctx.registry)
    op = read_operator(operator_file, max_dim=ctx.config.max_dim)
    blocks, new_spec, new_reg = decompose_network(op, spec, ctx.registry,
                                                  tol=ctx.config.tol_sector * 10)
    write_bundle(blocks, new_spec, output)
    dims = [new_reg.dim(m) for m in new_spec.memories[1:-1]]
    click.echo(f"wrote {output}: {len(blocks)} blocks, memory dims {dims}")


if __name__ == "__main__":
    main()
