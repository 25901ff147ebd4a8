"""Command-line front door wiring ingest -> core/series -> report.

Exit codes: 0 success, 1 usage error, 2 data error.  Results are
streamed to stdout or ``--out``, the same bytes either way, diagnostics
to stderr; an output file is replaced only when the command succeeds.
``MONMIN_TETCY`` overrides the default minutes-per-year constant.  Click
resolves every setting: a flag wins over its environment variable, which
wins over the optional JSON ``--config`` file, and each option's callback
checks and parses its value before the command reads any input file.

Only ``click``, the stdlib and ``errors`` load with this module, so
``--help`` and a usage error import no arithmetic.  Each command imports
the ``ingest``, ``report`` and ``series`` it runs in its own body, and an
option callback imports the ``core`` type it builds only when its option
is given; a module imported at the top of this file is paid by every
``--help``.
"""
from __future__ import annotations

import gc
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from decimal import Decimal, InvalidOperation, Overflow
from functools import partial
from pathlib import Path

import click

from .errors import _BOUND, CurrencyMismatch, IngestFailure, MonMinError, ShapeMismatch, _outside

_TETCY_HELP = "Minutes per year (default 525600; env MONMIN_TETCY)."
# The printed result holds every decimal asked for, and memory grows with them.
_MAX_DECIMALS = 1000
# The keys read from a config file, and the parameter each one sets in a command that has it;
# any other key would set the parameter of its name (``out``, ``extrema``).
_CONFIG_KEYS = {"tetcy": "std", "format": "fmt", "decimals": "decimals"}


def _config_entry(key: str, raw):
    """A ``default_map`` entry for a config value.

    Click calls it only when no flag or environment value wins, so a
    ``format`` or ``decimals`` that a flag overrides is never checked.
    """
    def value():
        if key == "format" and raw not in ("csv", "text"):
            raise click.UsageError(f"format must be csv or text, got {raw!r}")
        try:
            return int(str(raw)) if key == "decimals" else raw
        except ValueError:
            raise click.UsageError(f"config decimals must be a whole number, got {raw!r}")
    return value


def _read_config(ctx, param, path) -> None:
    """Make the ``--config`` file the command's ``default_map``.

    The option is eager, so the file is read before any other setting is
    resolved (only a ``--help`` ahead of it on the command line comes
    first); click then takes each setting from its flag, its environment
    variable or this map, in that order.  Only the keys of ``_CONFIG_KEYS``
    are kept, and click looks up only those the command has.
    """
    if path is None:
        return
    import json  # here, so that only a --config run pays for the import

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise click.UsageError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"config file {path} is not valid UTF-8: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer of more digits than Python reads
        raise click.UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config file {path} must hold a JSON object")
    ctx.default_map = {_CONFIG_KEYS[key]: _config_entry(key, raw) for key, raw in data.items() if key in _CONFIG_KEYS}


def _decimal_flag(text, flag: str, zero: bool = False) -> Decimal:
    """A flag's decimal number: finite, in the input range unless it is zero, and above zero.

    With ``zero``, zero is taken too.
    """
    try:
        value = Decimal(str(text))
    except InvalidOperation:
        raise click.UsageError(f"{flag} expects a decimal number, got {text!r}")
    if not value.is_finite():
        raise click.UsageError(f"{flag} expects a finite decimal number, got {text!r}")
    if not -_BOUND <= value.adjusted() <= _BOUND and value:
        raise click.UsageError(_outside(f"{flag} {text!r}"))
    if value < 0 or not (value or zero):
        raise click.UsageError(f"{flag} must be {'>=' if zero else '>'} 0, got {value}")
    return value


def _decimal(ctx, param, text, zero: bool = False) -> Decimal | None:
    """A decimal flag's value, named by its flag in a refusal; None when not given."""
    return None if text is None else _decimal_flag(text, param.opts[0], zero)


def _currency(ctx, param, text) -> CurrencyCode | None:
    """The ``--currency`` code; None when not given, and then ``series`` and ``report`` leave USD to the loader."""
    if text is None:
        return None
    from .core import CurrencyCode

    try:
        return CurrencyCode(text.upper())
    except ValueError as exc:
        raise click.UsageError(f"--currency {text!r}: {exc}")


def _tetcy(ctx, param, raw) -> TimeStandard | None:
    """The time standard from the flag, ``MONMIN_TETCY`` or the config; None when none gives one.

    The option takes its value unprocessed, so a config value that is not a
    string (``true``, ``[1]``) is named in the refusal as written.
    """
    if raw is None:
        return None
    from .core import TimeStandard

    return TimeStandard(_decimal_flag(raw, "--tetcy"))


def _given(**settings) -> dict:
    """The settings that were given; a library function's own default stands for each None.

    ``--currency`` and ``--tetcy`` leave their defaults (USD, 525600 minutes)
    to the loaders and builders, so a command that stops at a usage error
    builds no ``core`` type and never imports it.
    """
    return {name: value for name, value in settings.items() if value is not None}


def _decimals(ctx, param, places: int) -> int:
    """``--decimals``, from the flag or the config, within 0 to ``_MAX_DECIMALS``."""
    if places < 0:
        raise click.UsageError("--decimals must be >= 0")
    if places > _MAX_DECIMALS:
        raise click.UsageError(f"--decimals must be <= {_MAX_DECIMALS}, got {places}")
    return places


def _run_load(loader, path, **kwargs):
    """Run a loader, echo its report to stderr, fail on any error."""
    data, rep = loader(path, **kwargs)
    for issue in rep.warnings:
        click.echo(f"{path}:{issue.line}: warning: {issue.message}", err=True)
    if rep.errors:
        for issue in rep.errors:
            click.echo(f"{path}:{issue.line}: error: {issue.message}", err=True)
        raise IngestFailure(path, rep)
    return data


@contextmanager
def _open_out(path):
    """A text sink for ``--out`` or ``--plot-data`` that takes the place of ``path`` on success.

    With no path it is stdout, which gets the same bytes.  Otherwise it
    writes a new file beside the target and moves it over the target with
    ``os.replace`` when the block ends without error; on an error the new
    file is removed, so an existing file keeps its bytes and an absent one
    is not created.  A target the user may not write fails as
    ``open(path, "w")`` would.  A new file gets the mode ``open(path, "w")``
    gives it, and a replaced one keeps its permission bits.  A target that
    exists and is not a regular file (``/dev/stdout``, a FIFO) is written
    in place.
    """
    if not path:
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as sink:
            yield sink
        return
    if mode is not None:
        os.close(os.open(path, os.O_WRONLY))  # the write check of open(path, "w"), no truncation
    target = os.path.realpath(path)  # through a symlink, replace the file it names
    folder, name = os.path.split(target)
    while True:
        temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as sink:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            yield sink
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _cm_entries(ctx, param, entries) -> dict[str, MonMinValue]:
    """The repeatable ``--cm CODE=VALUE`` as manual minute values, checked whatever the command or table uses."""
    if not entries:
        return {}
    from .core import CmSource, CurrencyCode, MonMinValue

    values: dict[str, MonMinValue] = {}
    for raw in entries:
        code, sep, number = raw.partition("=")
        code = code.strip().upper()
        if not code or not number.strip():
            raise click.UsageError(f"--cm expects CODE=VALUE, got {raw!r}")
        try:
            currency = CurrencyCode(code)
        except ValueError as exc:
            raise click.UsageError(f"--cm {raw!r}: {exc}")
        if code in values:
            raise click.UsageError(f"--cm given twice for {code}")
        values[code] = MonMinValue(currency, _decimal_flag(number, "--cm"), CmSource.MANUAL)
    return values


def _cms_from_economies(path, std: TimeStandard | None) -> dict[str, MonMinValue]:
    from . import ingest
    from .core import compute_cm

    snapshots = _run_load(ingest.load_economies, path)
    values: dict[str, MonMinValue] = {}
    for snapshot in snapshots:
        if snapshot.currency.code in values:
            raise CurrencyMismatch(
                f"multiple economies share currency {snapshot.currency}; pass --cm explicitly"
            )
        values[snapshot.currency.code] = compute_cm(snapshot, **_given(std=std))
    return values


def _gather_cms(manual, economies_path, std: TimeStandard | None) -> dict[str, MonMinValue]:
    values = _cms_from_economies(economies_path, std) if economies_path else {}
    values.update(manual)  # explicit flags win
    if not values:
        raise click.UsageError("missing minute-value source: pass --cm CODE=VALUE or --economies")
    return values


def _note_cm_sources(values: dict[str, MonMinValue]) -> None:
    """One stderr line per minute value used: fixed-point, or scientific with "E" past 30 zeros."""
    from .ingest import _sci_text

    for code in values:
        cm = values[code]
        value = cm.value
        text = format(value, "f") if abs(value.adjusted()) <= 30 else _sci_text(value)
        click.echo(f"cm {code}={text} source={cm.source.value}", err=True)


@click.group()
def cli():
    """Monetary Minute toolkit: time-standard unit-of-account calculations."""


@cli.command("cm")
@click.option("--economies", "economies_path", required=True, help="Economies CSV file.")
@click.option("--tetcy", "std", envvar="MONMIN_TETCY", type=click.UNPROCESSED, callback=_tetcy, help=_TETCY_HELP)
@click.option("--config", is_eager=True, expose_value=False, callback=_read_config, help="Optional JSON config file.")
@click.option("--format", "fmt", type=click.Choice(["csv", "text"]), default="csv")
@click.option("--out", default=None, help="Write the table to this path instead of stdout.")
def cmd_cm(economies_path, std, fmt, out):
    """Per-country Monetary Minute values from an economies file."""
    from . import ingest, report

    snapshots = _run_load(ingest.load_economies, economies_path)
    with _open_out(out) as sink:
        report.write_table(*report.build_table1(snapshots, **_given(std=std)), sink, fmt)


@cli.command("convert")
@click.option("--amount", required=True, callback=partial(_decimal, zero=True), help="Price in currency units.")
@click.option("--currency", default=None, callback=_currency, help="Currency code of the amount.")
@click.option("--cm", "cm_value", default=None, callback=_decimal, help="Explicit minute value (currency per minute).")
@click.option("--economies", "economies_path", default=None, help="Compute the minute value from this file.")
@click.option("--country", default=None, help="Country to pick from the economies file.")
@click.option("--tetcy", "std", envvar="MONMIN_TETCY", type=click.UNPROCESSED, callback=_tetcy, help=_TETCY_HELP)
@click.option("--decimals", type=int, default=0, callback=_decimals, help="Decimals for the printed result (default 0, at most 1000).")
@click.option("--config", is_eager=True, expose_value=False, callback=_read_config, help="Optional JSON config file.")
def cmd_convert(amount, currency, cm_value, economies_path, country, std, decimals):
    """Convert a currency price into Monetary Minutes."""
    from . import ingest, report
    from .core import CmSource, CurrencyCode, MonMinValue, PriceQuote, compute_cm, to_monmin

    if cm_value is not None and economies_path:
        raise click.UsageError("use either --cm or --economies, not both")
    if cm_value is not None:
        cm = MonMinValue(currency or CurrencyCode("XXX"), cm_value, CmSource.MANUAL)
    elif economies_path:
        if not country:
            raise click.UsageError("--economies needs --country")
        snapshots = _run_load(ingest.load_economies, economies_path)
        snapshot = next((s for s in snapshots if s.country == country), None)
        if snapshot is None:
            raise MonMinError(f"country {country!r} not found in {economies_path}")
        if currency and snapshot.currency != currency:
            raise CurrencyMismatch(f"{country} is in {snapshot.currency}, not {currency}")
        cm = compute_cm(snapshot, **_given(std=std))
    else:
        raise click.UsageError(
            "missing minute-value source: pass --cm or --economies with --country"
        )
    minutes = to_monmin(PriceQuote("amount", "", cm.currency, amount), cm).monmin
    click.echo(report.format_cell(report.ColumnRule("monmin", decimals=decimals), minutes))


@cli.command("parity")
@click.option("--rate", required=True, callback=_decimal, help="Current rate, local per reference unit.")
@click.option("--ref", "ref_value", required=True, callback=partial(_decimal, zero=True), help="Reference-market minute price.")
@click.option("--local", "local_value", required=True, callback=_decimal, help="Local-market minute price.")
@click.option("--item", default="item", help="Item label for both prices.")
def cmd_parity(rate, ref_value, local_value, item):
    """Hypothetical rate that equalizes an item's minute price."""
    from . import report
    from .core import CurrencyCode, ExchangeRate, MonMinPrice, parity_rate

    current = ExchangeRate(CurrencyCode("REF"), CurrencyCode("LOC"), rate)
    ref_price = MonMinPrice(item, CurrencyCode("REF"), ref_value)
    local_price = MonMinPrice(item, CurrencyCode("LOC"), local_value)
    rate = parity_rate(current, ref_price, local_price)
    click.echo(report.format_cell(report.ColumnRule("rate", decimals=3), rate))


@cli.command("basket")
@click.option("--basket", "basket_path", required=True, help="Basket CSV file.")
@click.option("--economies", "economies_path", default=None, help="Minute values from this file.")
@click.option("--cm", "manual", multiple=True, callback=_cm_entries, help="CODE=VALUE manual minute value (repeatable).")
@click.option("--tetcy", "std", envvar="MONMIN_TETCY", type=click.UNPROCESSED, callback=_tetcy, help=_TETCY_HELP)
@click.option("--config", is_eager=True, expose_value=False, callback=_read_config, help="Optional JSON config file.")
@click.option("--out", default=None, help="Write the listing to this path instead of stdout.")
def cmd_basket(basket_path, economies_path, manual, std, out):
    """Re-express every basket quote in Monetary Minutes."""
    from . import ingest, report

    cms = _gather_cms(manual, economies_path, std)
    baskets = _run_load(ingest.load_basket, basket_path, known_currencies=cms.keys())
    spec, rows = report.build_basket_listing(baskets, cms)
    _note_cm_sources({b.currency.code: cms[b.currency.code] for b in baskets})
    with _open_out(out) as sink:
        report.write_table(spec, rows, sink)


@cli.command("percent")
@click.option("--basket", "basket_path", required=True, help="Basket CSV file with salary rows.")
@click.option("--out", default=None, help="Write the listing to this path instead of stdout.")
def cmd_percent(basket_path, out):
    """Each basket item as a percent of that basket's salary."""
    from . import ingest, report

    baskets = _run_load(ingest.load_basket, basket_path)
    with _open_out(out) as sink:
        report.write_table(*report.build_percent_listing(baskets), sink)


@cli.command("series")
@click.option("--series", "series_path", required=True, help="Yearly aggregates CSV file.")
@click.option("--currency", default=None, callback=_currency, help="Currency of the series (default USD).")
@click.option("--tetcy", "std", envvar="MONMIN_TETCY", type=click.UNPROCESSED, callback=_tetcy, help=_TETCY_HELP)
@click.option("--config", is_eager=True, expose_value=False, callback=_read_config, help="Optional JSON config file.")
@click.option("--format", "fmt", type=click.Choice(["csv", "text"]), default="csv")
@click.option("--extrema", is_flag=True, help="Also report local peak and trough years.")
@click.option("--plot-data", "plot_path", default=None, help="Write plot data to this path.")
@click.option("--out", default=None, help="Write the table to this path instead of stdout.")
def cmd_series(series_path, currency, std, fmt, extrema, plot_path, out):
    """Yearly M1 in Monetary Minutes: table, optional extrema and plot data."""
    from . import ingest, report
    from .series import detect_extrema, series_in_monmin

    aggregate = _run_load(ingest.load_series, series_path, **_given(currency=currency, std=std))
    minutes = series_in_monmin(aggregate)
    spec, rows = report.build_table5(aggregate, minutes)
    found = detect_extrema(minutes) if extrema else None
    with ExitStack() as files:  # both files are opened first and replaced only on success
        table = files.enter_context(_open_out(out))
        plot = files.enter_context(_open_out(plot_path)) if plot_path else None
        report.write_table(spec, rows, table, fmt)
        if found is not None:
            click.echo(f"peaks: {' '.join(str(y) for y in found.peaks)}")
            click.echo(f"troughs: {' '.join(str(y) for y in found.troughs)}")
        if plot is not None:
            report.write_plot_data(aggregate, plot, found, minutes)


@cli.command("report")
@click.option("--table", "table_id", required=True, type=click.Choice(["1", "2", "3", "4", "4b", "5"]))
@click.option("--economies", "economies_path", default=None, help="Economies CSV file.")
@click.option("--rates", "rates_path", default=None, help="Exchange-rate CSV file.")
@click.option("--basket", "basket_path", default=None, help="Basket CSV file.")
@click.option("--series", "series_path", default=None, help="Yearly aggregates CSV file.")
@click.option("--cm", "manual", multiple=True, callback=_cm_entries, help="CODE=VALUE manual minute value (repeatable).")
@click.option("--currency", default=None, callback=_currency, help="Series currency (table 5 only).")
@click.option("--tetcy", "std", envvar="MONMIN_TETCY", type=click.UNPROCESSED, callback=_tetcy, help=_TETCY_HELP)
@click.option("--config", is_eager=True, expose_value=False, callback=_read_config, help="Optional JSON config file.")
@click.option("--format", "fmt", type=click.Choice(["csv", "text"]), default="csv")
@click.option("--out", default=None, help="Write the table to this path instead of stdout.")
def cmd_report(
    table_id, economies_path, rates_path, basket_path, series_path, manual, currency, std, fmt, out,
):
    """Render one of the standard tables (1, 2, 3, 4, 4b, 5)."""
    flag, path = {
        "1": ("--economies", economies_path), "2": ("--rates", rates_path), "5": ("--series", series_path),
    }.get(table_id, ("--basket", basket_path))
    if not path:
        raise click.UsageError(f"table {table_id} needs {flag}")
    from . import ingest, report

    if table_id == "1":
        spec, rows = report.build_table1(_run_load(ingest.load_economies, path), **_given(std=std))
    elif table_id == "2":
        rates = _run_load(ingest.load_rates, path)
        bases = {rate.base.code for rate in rates}
        if len(bases) != 1:
            raise ShapeMismatch(f"table 2 needs a single-base rate table, got bases {sorted(bases)}")
        base_code = bases.pop()
        base_cm = manual.pop(base_code, None)
        if base_cm is None:
            raise click.UsageError(f"table 2 needs --cm {base_code}=<value> for the base currency")
        spec, rows = report.build_table2(base_cm, rates, manual)
    elif table_id in ("3", "4"):
        cms = _gather_cms(manual, economies_path, std)
        baskets = _run_load(ingest.load_basket, path, known_currencies=cms.keys())
        build = report.build_table3 if table_id == "3" else report.build_table4
        spec, rows = build(baskets, cms)
        _note_cm_sources({b.currency.code: cms[b.currency.code] for b in baskets})
    elif table_id == "4b":
        spec, rows = report.build_table4b(_run_load(ingest.load_basket, path))
    else:
        spec, rows = report.build_table5(_run_load(ingest.load_series, path, **_given(currency=currency, std=std)))

    with _open_out(out) as sink:
        report.write_table(spec, rows, sink, fmt)


def main(argv=None) -> int:
    """Run the CLI and map outcomes to exit codes (0 ok, 1 usage, 2 data).

    The cyclic garbage collector is off while the command runs: the rows,
    snapshots and quotes it builds form no reference cycles, so reference
    counting frees them, and the collector would only rescan every live
    object again and again as they are made.  Its previous state is restored
    on the way out.  The command's own modules are imported while it is
    off too: their classes and functions form reference cycles, but those
    stay reachable from ``sys.modules`` and are never garbage.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _one_line(message: str) -> str:
    """A message as one line, so that stderr ends with it.

    Click lists a choice's values a line each, and a name read from a file
    may hold a line break.
    """
    return " ".join(map(str.strip, message.splitlines()))


def _run(argv) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        hint = exc.ctx.get_usage() if exc.ctx else None
        if hint:
            click.echo(hint, err=True)
        click.echo(f"usage error: {_one_line(exc.format_message())}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (MonMinError, OSError) as exc:
        click.echo(f"error: {_one_line(str(exc))}", err=True)
        return 2
    except Overflow:  # the guard of last resort: no figure from bounded inputs gets here
        click.echo("error: Overflow: a result exceeds the decimal range (largest exponent 999999)", err=True)
        return 2
    return 0


def entry() -> None:
    """The ``monmin`` script and ``python -m monmin.cli``: run ``main`` and exit with its code.

    Every object the process made is frozen first, so the collector passes
    of interpreter shutdown skip them. Reference counting still frees the
    ones outside reference cycles; a frozen cycle is never collected, and
    the ``__del__`` of its objects never runs. So ``main`` must close or
    flush every file it opens before it returns.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
