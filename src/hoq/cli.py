"""Command-line front end.

Exit codes: 0 pass/success, 1 verdict FAIL (or NEITHER), 2 usage/parse/IO
errors, 3 UNDECIDED (admissible mode).  Reports print as text by default and
as JSON with ``--json``.  A config file can be named with ``--config`` or the
``HOQ_CONFIG`` environment variable; ``--registry`` supplies inline
``LABEL=DIM`` entries on top of it.
"""
from __future__ import annotations

import json
import math
import os
import sys

import click

from . import processes
from .errors import HoqError, SizeLimit
from .membership import classify as classify_op
from .membership import is_admissible, is_deterministic
from .network import compose_network, decompose_network
from .sectors import deviation_sectors, identity_coeff
from .serialize import (
    Config,
    load_config,
    parse_inline_registry,
    read_bundle,
    read_operator,
    read_spec,
    write_bundle,
    write_operator,
)
from .typesys import NetworkSpec, SystemRegistry, dehat, parse_type, systems_of


def _config(config_path, registry_inline) -> Config:
    """The config file's settings, with the inline registry merged into its registry."""
    path = config_path or os.environ.get("HOQ_CONFIG")
    cfg = load_config(path) if path else Config()
    if registry_inline:
        cfg.registry = cfg.registry.with_entries(**parse_inline_registry(registry_inline))
    return cfg


def _sized(t, reg: SystemRegistry, cfg: Config):
    """A type or spec ``t``, unless its k systems make 2^k > ``limits.max_dim`` patterns."""
    k = len(t.system_order(reg) if isinstance(t, NetworkSpec) else systems_of(t))
    if 2 ** k > cfg.max_dim:
        raise SizeLimit(f"{k} systems: 2^{k} sector patterns exceed limits.max_dim = {cfg.max_dim}")
    return t


def _fits(dim: int, cfg: Config) -> None:
    """:class:`SizeLimit` unless an operator of dimension ``dim`` fits ``limits.max_dim``,
    so that every file written can be read back under the same config."""
    if dim > cfg.max_dim:
        raise SizeLimit(f"operator dimension {dim} exceeds limits.max_dim = {cfg.max_dim}")


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
    cfg = _config(config_path, registry_inline)
    t = parse_type(type_string, cfg.registry, limit=cfg.recursion)
    click.echo(str(identity_coeff(t, cfg.registry)))


@main.command("delta")
@click.argument("type_string")
@click.option("--hierarchy", type=click.Choice(["bistoch", "standard"]),
              default="bistoch", show_default=True)
@with_common
def cmd_delta(type_string, hierarchy, config_path, registry_inline):
    """Print the allowed sector patterns of a type, one per line."""
    cfg = _config(config_path, registry_inline)
    t = _sized(parse_type(type_string, cfg.registry, limit=cfg.recursion), cfg.registry, cfg)
    if hierarchy == "standard":
        t = dehat(t)
    sectors = deviation_sectors(t, cfg.registry)
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
    cfg = _config(config_path, registry_inline)
    t = (read_spec(network_spec_file, cfg.registry, limit=cfg.recursion) if network_spec_file
         else parse_type(type_string, cfg.registry, limit=cfg.recursion))
    op = read_operator(operator_file, max_dim=cfg.max_dim)
    t = _sized(t, cfg.registry, cfg)
    if hierarchy == "standard":
        t = dehat(t)
    if admissible:
        result = is_admissible(op, t, cfg.registry, tol=cfg.tol_feas, max_iter=cfg.max_iter,
                               psd_tol=cfg.tol_psd, herm_tol=cfg.tol_herm)
        payload = {"status": result.status, "residual": result.residual,
                   "iterations": result.iterations, "reason": result.reason}
        click.echo(json.dumps(payload) if as_json else
                   f"{result.status} (residual {result.residual:.3e}, "
                   f"{result.iterations} iterations) {result.reason}")
        sys.exit({"FEASIBLE": 0, "NOT_ADMISSIBLE": 1}.get(result.status, 3))
    report = is_deterministic(op, t, cfg.registry, tol=cfg.tol_sector, psd_tol=cfg.tol_psd,
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
    cfg = _config(config_path, registry_inline)
    t = parse_type(type_string, cfg.registry, limit=cfg.recursion)
    op = read_operator(operator_file, max_dim=cfg.max_dim)
    result = classify_op(op, _sized(t, cfg.registry, cfg), cfg.registry, tol=cfg.tol_sector,
                         psd_tol=cfg.tol_psd, herm_tol=cfg.tol_herm)
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
    cfg = _config(config_path, registry_inline)
    # the operator's dimension, from the options alone, and how to build it;
    # a negative option counts as 0, so that its builder's own error reports it
    d, n, t_in, t_out = (max(v, 0) for v in (dim, slots, tail_in, tail_out))
    if process == "time-flip":  # A, B, and P, F of dimension 2d
        size, build = 4 * d ** 4, lambda: processes.canonical_ports(
            processes.time_flip_choi(dim))
    elif process == "n-time-flip":
        size, build = (d * 2 ** n) ** 2 * d ** (2 * n), lambda: (
            processes.canonical_ports(processes.n_time_flip_choi(slots, dim, dim_cap=cfg.max_dim)))
    elif process == "flip-switch":
        size, build = 4 * d ** 6, lambda: processes.canonical_ports(
            processes.flippable_switch_choi(dim))
    elif process == "lc23":
        size, build = n ** 4, lambda: processes.lc_23_process(slots)
    elif process == "lc22":
        size, build = d ** 4, lambda: processes.lc_22_process(dim, x, y)
    else:
        size, build = d ** 2 * t_in * t_out, lambda: (
            processes.random_bistochastic_channel(dim, tail_in, tail_out, k=k, seed=seed))
    _fits(size, cfg)
    op = build()
    write_operator(op, output)
    click.echo(f"wrote {output}: factors {list(op.labels)}, dim {op.dim}")


@main.command("apply-flip")
@click.option("--channel", "channel_file", required=True, type=click.Path(exists=True))
@click.option("--state", "state_file", required=True, type=click.Path(exists=True))
@click.option("--control", "control_file", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@with_common
def cmd_apply_flip(channel_file, state_file, control_file, output,
                   config_path, registry_inline):
    """Run a channel through the direction flip on given target and control states."""
    max_dim = _config(config_path, registry_inline).max_dim
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
    cfg = _config(config_path, registry_inline)
    blocks, spec, reg = read_bundle(bundle_file, cfg.registry, max_dim=cfg.max_dim,
                                    limit=cfg.recursion)
    for i in range(spec.n):
        _sized(spec.block_type(i), reg, cfg)
    _fits(math.prod(d for _, d in spec.system_order(reg)), cfg)
    composed = compose_network(blocks, spec, reg, tol=cfg.tol_sector,
                               psd_tol=cfg.tol_psd, herm_tol=cfg.tol_herm)
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
    cfg = _config(config_path, registry_inline)
    op = read_operator(operator_file, max_dim=cfg.max_dim)
    spec = _sized(read_spec(spec_file, cfg.registry, limit=cfg.recursion), cfg.registry, cfg)
    blocks, new_spec, new_reg = decompose_network(op, spec, cfg.registry,
                                                  tol=cfg.tol_sector * 10,
                                                  psd_tol=cfg.tol_psd, herm_tol=cfg.tol_herm)
    _fits(max(b.dim for b in blocks), cfg)
    write_bundle(blocks, new_spec, output)
    dims = [new_reg.dim(m) for m in new_spec.memories[1:-1]]
    click.echo(f"wrote {output}: {len(blocks)} blocks, memory dims {dims}")


if __name__ == "__main__":
    main()
