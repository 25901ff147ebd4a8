"""Independent brute-force oracles the fast implementations are checked against."""


def brute_force_extrema(values):
    """Per-point scan for strict local extrema with first-of-plateau ties.

    For every point, look outward for the nearest differing value on each
    side; a point is a peak/trough when both exist and are smaller/larger,
    and the point is not a later member of a plateau.  Deliberately O(n^2)
    and structurally unlike the production single-pass implementation.
    """
    peaks, troughs = [], []
    n = len(values)
    for i in range(n):
        year, value = values[i]
        if i > 0 and values[i - 1][1] == value:
            continue  # not the first year of its plateau
        left = next((values[j][1] for j in range(i - 1, -1, -1) if values[j][1] != value), None)
        right = next((values[j][1] for j in range(i + 1, n) if values[j][1] != value), None)
        if left is None or right is None:
            continue
        if left < value and right < value:
            peaks.append(year)
        elif left > value and right > value:
            troughs.append(year)
    return peaks, troughs


def reference_cell(value, decimals=None, sig_figures=None):
    """Cell text of one value under a rounding rule, computed value by value.

    Mirrors the renderer before its per-column formatters were compiled:
    coerce (floats through ``str``), build the quantum for this value,
    round half away from zero, print ``0`` for a negative zero, and write
    fixed-point text, never an exponent.
    """
    from decimal import ROUND_HALF_UP, Decimal

    number = Decimal(str(value)) if isinstance(value, float) else Decimal(value)
    if decimals is not None:
        rounded = number.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)
        return format(abs(rounded) if rounded == 0 else rounded, "f")
    if number == 0:
        return "0"
    quantum = Decimal(1).scaleb(number.adjusted() - sig_figures + 1)
    text = format(number.quantize(quantum, rounding=ROUND_HALF_UP), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def reference_minutes(quote, cm):
    """A quote's minute price the per-quote way: :func:`to_monmin`, checks and all."""
    from monmin import to_monmin

    return to_monmin(quote, cm).monmin


def reference_percent(quote, salary):
    """A quote as a percent of a salary the per-quote way: both re-priced at a unit minute value."""
    from decimal import Decimal

    from monmin import CmSource, MonMinValue, percent_of_salary, to_monmin

    one = MonMinValue(salary.currency, Decimal(1), CmSource.MANUAL)
    return percent_of_salary(to_monmin(quote, one), to_monmin(salary, one))


def reference_render(spec, rows, fmt):
    """A table rendered cell by cell, as the renderer did before verbatim cells went to csv.writer.

    Every cell is turned into text first: numeric columns through
    :func:`reference_cell`, the others through ``report._verbatim``.
    """
    import csv
    import io

    from monmin.report import _verbatim

    names = [c.name for c in spec.columns]
    cells = [
        [
            reference_cell(row[c.name], c.decimals, c.sig_figures) if c.numeric else _verbatim(row[c.name])
            for c in spec.columns
        ]
        for row in rows
    ]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        for row in cells:
            writer.writerow(row)
        return buffer.getvalue()
    widths = [max([len(name)] + [len(row[i]) for row in cells]) for i, name in enumerate(names)]
    lines = []
    for row in [names] + cells:
        padded = [
            cell.rjust(widths[i]) if spec.columns[i].numeric else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def reference_plot_data(series, extrema=None):
    """Plot-data CSV written a row at a time, as before rows were written in blocks.

    Each year's M1, M1 in minutes and GDP go through ``ingest._plain`` one by
    one, and each row through ``csv.writer.writerow``.
    """
    import csv
    import io

    from monmin import series_in_monmin
    from monmin.ingest import _plain

    markers = {}
    if extrema is not None:
        markers = dict.fromkeys(extrema.troughs, "trough")
        markers.update(dict.fromkeys(extrema.peaks, "peak"))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["year", "m1_currency", "m1_monmin", "gdp_currency"]
    writer.writerow(header + ["extremum"] if extrema is not None else header)
    for y, (_, value) in zip(series.years, series_in_monmin(series)):
        row = [str(y.year), _plain(y.m1), _plain(value), _plain(y.gdp)]
        if extrema is not None:
            row.append(markers.get(y.year, ""))
        writer.writerow(row)
    return buffer.getvalue()


def table5_population_interval(m1, minutes, gdp, minutes_per_year=525600):
    """The populations consistent with one printed table 5 row, as an exact ``Fraction`` interval ``(low, high)``.

    ``m1`` and ``gdp`` are printed in billions of currency and ``minutes``
    (M1 in minutes) in billions of minutes, each to a whole unit, so each is
    known only to within 0.5.  A population is consistent with the row when
    some m1, gdp and minute figure within those bounds satisfy
    ``minutes = m1 * population * minutes_per_year / gdp``.  The population
    that solves it, ``minutes * gdp / (m1 * minutes_per_year)``, rises with
    ``minutes`` and ``gdp`` and falls with ``m1``, so the bounds of the
    interval come from the corners of the three input intervals.
    """
    from fractions import Fraction

    half, billion = Fraction(1, 2), 10**9  # m1 and gdp are both in billions, so only the minutes scale
    m1, minutes, gdp = Fraction(m1), Fraction(minutes), Fraction(gdp)
    low = (minutes - half) * billion * (gdp - half) / ((m1 + half) * minutes_per_year)
    high = (minutes + half) * billion * (gdp + half) / ((m1 - half) * minutes_per_year)
    return low, high
