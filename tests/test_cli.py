import decimal
import gc
import json
import operator
import os
import re
import stat
import subprocess
import sys
from collections import defaultdict
from decimal import Decimal as D
from pathlib import Path

import click
import pytest

from conftest import FIXTURES, GOLDEN, golden_runs
from monmin import CurrencyCode, MonMinValue, cli, detect_extrema, load_series, report, series_in_monmin
from monmin.cli import _note_cm_sources, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def economies_arg(fixtures):
    return str(fixtures / "economies_table1.csv")


class TestCm:
    def test_table1_default_standard(self, capsys, fixtures):
        code, out, err = run(capsys, "cm", "--economies", economies_arg(fixtures))
        assert code == 0
        us = next(line for line in out.splitlines() if line.startswith("United States"))
        assert ",0.1210095," in us

    def test_alternative_standard_via_flag(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "cm", "--economies", economies_arg(fixtures), "--tetcy", "525948.766"
        )
        assert code == 0
        us = next(line for line in out.splitlines() if line.startswith("United States"))
        cell = D(us.split(",")[5])
        assert abs(cell - D("0.1209293")) <= D("5e-7")

    def test_env_var_sets_standard(self, capsys, fixtures, monkeypatch):
        monkeypatch.setenv("MONMIN_TETCY", "525948.766")
        code, out, _ = run(capsys, "cm", "--economies", economies_arg(fixtures))
        us = next(line for line in out.splitlines() if line.startswith("United States"))
        assert abs(D(us.split(",")[5]) - D("0.1209293")) <= D("5e-7")

    def test_flag_wins_over_env_var(self, capsys, fixtures, monkeypatch):
        monkeypatch.setenv("MONMIN_TETCY", "525948.766")
        code, out, _ = run(
            capsys, "cm", "--economies", economies_arg(fixtures), "--tetcy", "525600"
        )
        us = next(line for line in out.splitlines() if line.startswith("United States"))
        assert ",0.1210095," in us

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "cm", "--economies", "missing.csv")
        assert code == 2
        assert out == ""
        assert "file not found" in err

    def test_ingest_errors_exit_2_with_line_messages(self, capsys, tmp_path):
        bad = tmp_path / "e.csv"
        bad.write_text("country,currency,gdp,population,as_of\nX,USD,100,0,2019-01-01\n")
        code, out, err = run(capsys, "cm", "--economies", str(bad))
        assert code == 2
        assert ":2: error: NonPositiveInput" in err

    def test_infinite_gdp_exits_2_without_traceback(self, capsys, tmp_path):
        bad = tmp_path / "e.csv"
        bad.write_text(
            "country,currency,gdp,population,as_of\n"
            "X,USD,100,10,2019-01-01\nY,USD,Infinity,10,2019-01-01\n"
        )
        code, out, err = run(capsys, "cm", "--economies", str(bad))
        assert code == 2 and out == ""
        assert ":3: error: MalformedRow: not a finite number: 'Infinity'" in err
        assert "Traceback" not in err

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "cm")
        assert code == 1

    def test_text_format(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "cm", "--economies", economies_arg(fixtures), "--format", "text"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("country")
        assert "," not in out.splitlines()[1]

    def test_gdp_wider_than_28_digits_prints_in_full(self, capsys, tmp_path):
        big = tmp_path / "e.csv"
        big.write_text("country,currency,gdp,population,as_of\nX,USD,1E+40,10,2019-01-01\n")
        code, out, err = run(capsys, "cm", "--economies", str(big))
        assert code == 0, err
        assert out.splitlines()[1] == (
            "X,USD,1" + "0" * 40 + ",10,1" + "0" * 39
            + ",1902587519025875190258751903000000.0000000,computed_from_gdp"
        )


class TestConvert:
    def test_gold_with_explicit_cm(self, capsys):
        code, out, _ = run(capsys, "convert", "--amount", "1447", "--cm", "0.121001")
        assert code == 0
        assert abs(int(out.strip()) - 11958) <= 1

    def test_cotton(self, capsys):
        code, out, _ = run(capsys, "convert", "--amount", "61.71", "--cm", "0.121001")
        assert abs(int(out.strip()) - 510) <= 1

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "convert", "--amount", "0", "--cm", "1")
        assert code == 0 and out.strip() == "0"

    def test_decimals_flag(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--amount", "1447", "--cm", "0.121001", "--decimals", "2"
        )
        assert out.strip() == "11958.58"

    def test_from_economies(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "convert", "--amount", "1447", "--economies", economies_arg(fixtures),
            "--country", "United States",
        )
        assert code == 0
        assert abs(int(out.strip()) - 11958) <= 2  # full-precision cm, not the printed one

    def test_unknown_country_exits_2(self, capsys, fixtures):
        code, _, err = run(
            capsys, "convert", "--amount", "1", "--economies", economies_arg(fixtures),
            "--country", "Atlantis",
        )
        assert code == 2 and "Atlantis" in err

    def test_currency_mismatch_exits_2(self, capsys, fixtures):
        code, _, err = run(
            capsys, "convert", "--amount", "1", "--economies", economies_arg(fixtures),
            "--country", "Japan", "--currency", "USD",
        )
        assert code == 2

    def test_missing_cm_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "convert", "--amount", "1")
        assert code == 1
        assert "usage error" in err

    def test_both_cm_sources_is_usage_error(self, capsys, fixtures):
        code, _, _ = run(
            capsys, "convert", "--amount", "1", "--cm", "1",
            "--economies", economies_arg(fixtures), "--country", "Japan",
        )
        assert code == 1


class TestParity:
    def test_gold_czk_per_gbp(self, capsys):
        code, out, _ = run(capsys, "parity", "--rate", "28.409", "--ref", "11958", "--local", "79155")
        assert code == 0 and out.strip() == "4.292"

    def test_equal_prices(self, capsys):
        code, out, _ = run(capsys, "parity", "--rate", "5", "--ref", "100", "--local", "100")
        assert out.strip() == "5.000"

    def test_mcmeal_jpy(self, capsys):
        code, out, _ = run(capsys, "parity", "--rate", "108.33", "--ref", "58", "--local", "82")
        assert abs(D(out.strip()) - D("76.617")) <= D("0.01")

    def test_zero_local_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "parity", "--rate", "1", "--ref", "1", "--local", "0")
        assert (code, out, err.splitlines()[-1]) == (1, "", "usage error: --local must be > 0, got 0")

    def test_rate_wider_than_28_digits_prints_every_digit(self, capsys):
        code, out, err = run(capsys, "parity", "--rate", "1E+30", "--ref", "1", "--local", "1")
        assert (code, out, err) == (0, "1" + "0" * 30 + ".000\n", "")


class TestBasketAndPercent:
    def test_basket_listing(self, capsys, fixtures):
        code, out, err = run(
            capsys, "basket", "--basket", str(fixtures / "basket_commodities.csv"),
            "--cm", "USD=0.121001", "--cm", "CZK=0.951979",
            "--cm", "EUR=0.077722", "--cm", "GBP=0.014648",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "country,currency,item,unit,amount,role,monmin,cm_source"
        gold_usd = next(line for line in lines if ",USD,Gold," in line)
        assert ",11959,manual" in gold_usd or ",11958,manual" in gold_usd
        assert "cm USD=0.121001 source=manual" in err

    def test_basket_from_economies(self, capsys, fixtures):
        code, out, err = run(
            capsys, "basket", "--basket", str(fixtures / "basket_commodities.csv"),
            "--economies", economies_arg(fixtures),
        )
        assert code == 0
        assert "source=computed_from_gdp" in err

    def test_basket_unknown_currency_exits_2(self, capsys, fixtures):
        code, _, err = run(
            capsys, "basket", "--basket", str(fixtures / "basket_commodities.csv"),
            "--cm", "USD=0.121001",
        )
        assert code == 2
        assert "UnknownCurrency" in err

    def test_basket_needs_cm_source(self, capsys, fixtures):
        code, _, _ = run(capsys, "basket", "--basket", str(fixtures / "basket_commodities.csv"))
        assert code == 1

    def test_percent(self, capsys, fixtures):
        code, out, _ = run(capsys, "percent", "--basket", str(fixtures / "basket_food.csv"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "country,currency,item,unit,percent"
        mcmeal = next(line for line in lines if line.startswith("United States") and "McMeal" in line)
        assert mcmeal.endswith("0.22")
        salary = next(line for line in lines if line.startswith("United States") and "Salary" in line)
        assert salary.endswith("100.00")

    def test_percent_requires_salary(self, capsys, fixtures):
        code, _, err = run(capsys, "percent", "--basket", str(fixtures / "basket_commodities.csv"))
        assert code == 2
        assert "salary" in err

    @pytest.mark.parametrize(
        "argv,header",
        [
            (["report", "--table", "3", "--cm", "USD=1"], "item,unit"),
            (["report", "--table", "4", "--cm", "USD=1"], "item,unit"),
            (["report", "--table", "4b"], "item,unit"),
            (["percent"], "country,currency,item,unit,percent"),
        ],
        ids=["table3", "table4", "table4b", "percent"],
    )
    def test_a_basket_file_with_no_rows_prints_only_the_header(self, capsys, tmp_path, argv, header):
        path = tmp_path / "b.csv"
        path.write_text("country,currency,item,unit,amount,role\n")
        assert run(capsys, *argv, "--basket", str(path)) == (0, header + "\n", "")


class TestSeries:
    def test_table_and_extrema(self, capsys, fixtures):
        code, out, _ = run(
            capsys, "series", "--series", str(fixtures / "series_us.csv"), "--extrema"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "year,m1_billions,m1_monmin_billions,gdp_billions,events"
        assert len([line for line in lines if line[:4].isdigit()]) == 57
        troughs = next(line for line in lines if line.startswith("troughs:"))
        assert "2008" in troughs
        peaks = next(line for line in lines if line.startswith("peaks:"))
        assert "1987" in peaks and "1994" in peaks

    def test_plot_data_file(self, capsys, fixtures, tmp_path):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys, "series", "--series", str(fixtures / "series_us.csv"),
            "--extrema", "--plot-data", str(plot),
        )
        assert code == 0
        lines = plot.read_text().splitlines()
        assert len(lines) == 58
        assert next(line for line in lines if line.startswith("2008,")).endswith(",trough")

    def test_two_row_series_with_extrema_exits_2(self, capsys, tmp_path):
        short = tmp_path / "s.csv"
        short.write_text("year,m1,gdp,population,events\n1960,1,2,3,\n1961,1,2,3,\n")
        code, _, err = run(capsys, "series", "--series", str(short), "--extrema")
        assert code == 2
        assert "3 points" in err

    def test_years_of_exactly_equal_minutes_are_one_plateau(self, capsys, tmp_path):
        """2002 has seven times 2001's m1 and gdp, so both years are exactly equal in minutes: the peak is 2001."""
        m1, gdp, population = 628191900381928, 422288594494217, 945827561
        series = tmp_path / "s.csv"
        series.write_text("year,m1,gdp,population\n" + "".join(
            f"{year},{year_m1},{year_gdp},{population}\n"
            for year, year_m1, year_gdp in [
                (2000, m1 // 2, gdp), (2001, m1, gdp), (2002, 7 * m1, 7 * gdp), (2003, m1 // 2, gdp),
            ]
        ))
        code, out, err = run(capsys, "series", "--series", str(series), "--extrema")
        assert code == 0, err
        assert out.splitlines()[-2:] == ["peaks: 2001", "troughs: "]

    def test_out_file_matches_stdout(self, capsys, fixtures, tmp_path):
        code, out, _ = run(capsys, "series", "--series", str(fixtures / "series_us.csv"))
        target = tmp_path / "t5.csv"
        code2, out2, _ = run(
            capsys, "series", "--series", str(fixtures / "series_us.csv"), "--out", str(target)
        )
        assert code == code2 == 0
        assert target.read_text() == out
        assert out2 == ""


class TestReportCommand:
    def test_usage_error_when_input_missing(self, capsys):
        code, _, err = run(capsys, "report", "--table", "1")
        assert code == 1
        assert "needs --economies" in err

    def test_bad_table_choice_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "report", "--table", "7")
        assert code == 1

    def test_table2_requires_base_cm(self, capsys, fixtures):
        code, _, err = run(
            capsys, "report", "--table", "2", "--rates", str(fixtures / "rates_table2.csv")
        )
        assert code == 1
        assert "USD=" in err

    def test_table1_out_file(self, capsys, fixtures, tmp_path):
        target = tmp_path / "t1.csv"
        code, out, _ = run(
            capsys, "report", "--table", "1", "--economies", economies_arg(fixtures),
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert "0.1210095" in target.read_text()

    def test_table2_warns_on_reciprocal_rates_then_refuses_two_bases(self, capsys, tmp_path):
        rates = tmp_path / "r.csv"
        rates.write_text("base,quote,rate,as_of\nUSD,EUR,1.1325,2019-07-01\nEUR,USD,0.5,2019-07-01\n")
        code, out, err = run(capsys, "report", "--table", "2", "--rates", str(rates))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"{rates}:3: warning: reciprocal rates EUR->USD and USD->EUR multiply to 0.56625, expected 1",
            "error: table 2 needs a single-base rate table, got bases ['EUR', 'USD']",
        ]

    def test_table2_refuses_rates_past_the_input_range_on_their_lines(self, capsys, tmp_path):
        rates = tmp_path / "r.csv"
        rates.write_text("base,quote,rate,as_of\nUSD,EUR,9E+999999,\nEUR,USD,9E+999999,\n")
        code, out, err = run(capsys, "report", "--table", "2", "--rates", str(rates))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"{rates}:2: error: MalformedRow: {outside(repr('9E+999999'))}",
            f"{rates}:3: error: MalformedRow: {outside(repr('9E+999999'))}",
            f"error: {rates}: 2 error(s)",
        ]

    def test_economies_sharing_a_currency_need_explicit_cm(self, capsys, tmp_path):
        economies = tmp_path / "e.csv"
        economies.write_text(
            "country,currency,gdp,population,as_of\nA,USD,100,10,2019-01-01\nB,USD,200,10,2019-01-01\n"
        )
        code, out, err = run(
            capsys, "basket", "--basket", str(FIXTURES / "basket_food.csv"), "--economies", str(economies)
        )
        assert (code, out, err) == (2, "", "error: multiple economies share currency USD; pass --cm explicitly\n")

    def test_empty_input_file(self, capsys, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        code, out, err = run(capsys, "cm", "--economies", str(empty))
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"{empty}:1: error: MalformedRow: missing header row"


class TestConfigFile:
    def test_tetcy_from_config(self, capsys, fixtures, tmp_path):
        config = tmp_path / "monmin.json"
        config.write_text(json.dumps({"tetcy": "525948.766"}))
        code, out, _ = run(
            capsys, "cm", "--economies", economies_arg(fixtures), "--config", str(config)
        )
        us = next(line for line in out.splitlines() if line.startswith("United States"))
        assert abs(D(us.split(",")[5]) - D("0.1209293")) <= D("5e-7")

    def test_flag_wins_over_config(self, capsys, fixtures, tmp_path):
        config = tmp_path / "monmin.json"
        config.write_text(json.dumps({"tetcy": "525948.766"}))
        code, out, _ = run(
            capsys, "cm", "--economies", economies_arg(fixtures),
            "--config", str(config), "--tetcy", "525600",
        )
        us = next(line for line in out.splitlines() if line.startswith("United States"))
        assert ",0.1210095," in us

    def test_bad_config_is_usage_error(self, capsys, fixtures, tmp_path):
        config = tmp_path / "monmin.json"
        config.write_text("[1, 2]")
        code, _, _ = run(
            capsys, "cm", "--economies", economies_arg(fixtures), "--config", str(config)
        )
        assert code == 1

    def test_config_not_utf8_is_usage_error(self, capsys, fixtures, tmp_path):
        config = tmp_path / "monmin.json"
        config.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run(
            capsys, "cm", "--economies", economies_arg(fixtures), "--config", str(config)
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith(f"usage error: config file {config} is not valid UTF-8: ")
        assert "Traceback" not in err


class TestSettingsBeforeFiles:
    """Every command checks its settings before it reads an input file."""

    @pytest.mark.parametrize("setting", ["tetcy", "config-format"])
    def test_cm_and_report_agree(self, capsys, tmp_path, setting):
        missing = str(tmp_path / "missing.csv")
        if setting == "tetcy":
            extra, message = ["--tetcy", "abc"], "usage error: --tetcy expects a decimal number, got 'abc'"
        else:
            config = tmp_path / "monmin.json"
            config.write_text(json.dumps({"format": "xml"}))
            extra, message = ["--config", str(config)], "usage error: format must be csv or text, got 'xml'"
        outcomes = [
            run(capsys, *argv, "--economies", missing, *extra)
            for argv in (["cm"], ["report", "--table", "1"])
        ]
        for code, out, err in outcomes:
            assert (code, out, err.splitlines()[-1]) == (1, "", message)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--cm", "USD=abc", "--economies"], "--cm"),
            (["convert", "--amount", "abc", "--country", "X", "--economies"], "--amount"),
            (["report", "--table", "2", "--cm", "USD=abc", "--rates"], "--cm"),
        ],
        ids=["basket-cm", "convert-amount", "report-2-cm"],
    )
    def test_flag_before_the_input_file(self, capsys, tmp_path, argv, flag):
        code, _, err = run(capsys, *argv, str(tmp_path / "missing.csv"))
        assert (code, err.splitlines()[-1]) == (1, f"usage error: {flag} expects a decimal number, got 'abc'")

    @pytest.mark.parametrize(
        "command", [["series"], ["report", "--table", "5"]], ids=["series", "report-5"]
    )
    def test_series_config_format_before_the_file(self, capsys, tmp_path, command):
        config = tmp_path / "monmin.json"
        config.write_text(json.dumps({"format": "xml"}))
        code, _, err = run(
            capsys, *command, "--series", str(tmp_path / "missing.csv"), "--config", str(config)
        )
        assert (code, err.splitlines()[-1]) == (1, "usage error: format must be csv or text, got 'xml'")


def write_config(tmp_path, text):
    config = tmp_path / "monmin.json"
    config.write_text(text, encoding="utf-8")
    return str(config)


def _shared_flags() -> dict[str, list[str]]:
    """Each option that two or more commands declare with one callback and type, with those commands.

    An option with neither a callback nor a choice (a path) refuses no value itself.
    """
    declared = defaultdict(list)
    for name, command in cli.cli.commands.items():
        for param in command.params:
            if param.callback is not None or isinstance(param.type, click.Choice):
                declared[param.opts[0], param.callback, repr(param.type)].append(name)
    return {flag: names for (flag, _, _), names in declared.items() if len(names) > 1}


SHARED_FLAGS = _shared_flags()


class TestSettingsContract:
    """Each refused setting: exit 1 and the exact last stderr line, from every source it may come from."""

    @pytest.mark.parametrize("flag", sorted(SHARED_FLAGS))
    def test_a_shared_flag_is_refused_alike_by_every_command(self, capsys, tmp_path, flag):
        bad = {"--cm": ["USD", "USD=1E+100000", "USD=0"], "--config": [str(tmp_path / "absent.json")],
               "--currency": ["U$D"], "--format": ["xml"], "--tetcy": ["0", "1E+100000"]}[flag]
        for value in bad:
            last = {}
            for command in SHARED_FLAGS[flag]:
                code, out, err = run(capsys, command, flag, value)
                assert (code, out) == (1, ""), command
                last[command] = err.splitlines()[-1]
            lines = set(last.values())
            assert len(lines) == 1 and lines.pop().startswith("usage error: "), last

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "config file not found: {path}"),
            ("nope", "config file {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]", "config file {path} must hold a JSON object"),
        ],
        ids=["missing", "not-json", "not-an-object"],
    )
    def test_config_file_faults(self, capsys, tmp_path, text, message):
        path = str(tmp_path / "monmin.json") if text is None else write_config(tmp_path, text)
        code, out, err = run(capsys, "cm", "--economies", economies_arg(FIXTURES), "--config", path)
        assert (code, out, err.splitlines()[-1]) == (1, "", "usage error: " + message.format(path=path))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on an integer's digits")
    def test_config_integer_past_python_digit_limit_is_usage_error(self, capsys, tmp_path):
        """``json`` refuses it with a plain ``ValueError``, whose text is Python's own."""
        path = write_config(tmp_path, '{"tetcy": 1' + "0" * 5000 + "}")
        code, out, err = run(capsys, "cm", "--economies", economies_arg(FIXTURES), "--config", path)
        assert (code, out) == (1, "") and "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"usage error: config file {path} is not valid JSON: ")

    @pytest.mark.parametrize("text,message", [
        ("0", "--tetcy must be > 0, got 0"),
        ("1E-100000", "--tetcy '1E-100000' is outside the input range (exponent -99999 to 99999)"),
    ], ids=["zero", "past-the-range"])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_tetcy_zero_from_every_source(self, capsys, monkeypatch, tmp_path, source, text, message):
        """Zero, and a number past the input range; a config gives the second as a string, as JSON has no such float."""
        argv = ["cm", "--economies", economies_arg(FIXTURES)]
        if source == "flag":
            argv += ["--tetcy", text]
        elif source == "env":
            monkeypatch.setenv("MONMIN_TETCY", text)
        else:
            argv += ["--config", write_config(tmp_path, json.dumps({"tetcy": int(text) if text == "0" else text}))]
        code, out, err = run(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (1, "", f"usage error: {message}")

    def test_null_tetcy_in_config_is_the_default_standard(self, capsys, tmp_path):
        config = write_config(tmp_path, json.dumps({"tetcy": None}))
        code, out, err = run(capsys, "cm", "--economies", economies_arg(FIXTURES), "--config", config)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / "table1.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["convert", "--amount", "1", "--cm", "1", "--decimals", "-1"], "--decimals must be >= 0"),
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--cm", "bad"],
             "--cm expects CODE=VALUE, got 'bad'"),
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--cm", "=5"],
             "--cm expects CODE=VALUE, got '=5'"),
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--cm", "USD="],
             "--cm expects CODE=VALUE, got 'USD='"),
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--cm", "usd1x=1"],
             "--cm 'usd1x=1': currency code must be 3-4 uppercase characters, got 'USD1X'"),
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--cm", "USD=1", "--cm", "usd=2"],
             "--cm given twice for USD"),
            (["convert", "--amount", "1", "--economies", "F"], "--economies needs --country"),
            (["convert", "--amount", "1", "--cm", "1", "--economies", "F"],
             "use either --cm or --economies, not both"),
            (["report", "--table", "1"], "table 1 needs --economies"),
            (["report", "--table", "2"], "table 2 needs --rates"),
            (["report", "--table", "3"], "table 3 needs --basket"),
            (["report", "--table", "4"], "table 4 needs --basket"),
            (["report", "--table", "4b"], "table 4b needs --basket"),
            (["report", "--table", "5"], "table 5 needs --series"),
        ],
        ids=["decimals-negative", "cm-no-equals", "cm-no-code", "cm-no-value", "cm-bad-code", "cm-twice",
             "economies-no-country", "cm-and-economies", "table-1", "table-2", "table-3", "table-4", "table-4b", "table-5"],
    )
    def test_refused_flags(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (1, "", f"usage error: {message}")

    @pytest.mark.parametrize(
        "argv,settings",
        [
            (["basket", "--basket", str(FIXTURES / "basket_food.csv"), "--economies", economies_arg(FIXTURES)],
             {"format": "xml"}),
            (["convert", "--amount", "1", "--cm", "1"], {"format": "xml"}),
            (["cm", "--economies", economies_arg(FIXTURES)], {"decimals": "two"}),
        ],
        ids=["basket-format", "convert-format", "cm-decimals"],
    )
    def test_config_keys_the_command_lacks_are_ignored(self, capsys, tmp_path, argv, settings):
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--config", write_config(tmp_path, json.dumps(settings)))
        assert (code, out) == (0, expected)

    def test_undocumented_config_keys_set_nothing(self, capsys, tmp_path):
        argv = ["series", "--series", str(FIXTURES / "series_us.csv")]
        target = tmp_path / "out.csv"
        config = write_config(tmp_path, json.dumps({"out": str(target), "extrema": True}))
        expected = run(capsys, *argv)
        assert run(capsys, *argv, "--config", config) == expected
        assert expected[0] == 0 and not target.exists()

    def test_config_format_sets_the_table_format(self, capsys, tmp_path):
        config = write_config(tmp_path, json.dumps({"format": "text"}))
        code, out, err = run(capsys, "cm", "--economies", economies_arg(FIXTURES), "--config", config)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / "table1.txt").read_bytes()

    def test_convert_currency_that_matches_the_country(self, capsys):
        code, out, err = run(
            capsys, "convert", "--amount", "1447", "--economies", economies_arg(FIXTURES),
            "--country", "United States", "--currency", "USD",
        )
        assert (code, out, err) == (0, "11958\n", "")

    def test_command_help(self, capsys):
        code, out, _ = run(capsys, "cm", "--help")
        assert code == 0 and out.startswith("Usage: ")

    def test_no_arguments_print_the_help(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["monmin"])
        helped = run(capsys, "--help")
        assert helped[0] == 0 and helped[1].startswith("Usage: ") and "Commands:" in helped[1] and helped[2] == ""
        assert run(capsys) == helped
        assert (main(), *capsys.readouterr()) == helped


class TestFaultOrder:
    """With two faults, the config file's own comes first, then the first bad flag on the command line,
    then a bad environment or config value, in the order the command declares its options."""

    @pytest.mark.parametrize(
        "argv,env,message",
        [
            (["series", "--series", "F", "--currency", "x", "--tetcy", "y"], None,
             "--currency 'x': currency code must be 3-4 uppercase characters, got 'X'"),
            (["series", "--series", "F", "--tetcy", "y", "--currency", "x"], None,
             "--tetcy expects a decimal number, got 'y'"),
            (["series", "--series", "F", "--currency", "x"], "y",
             "--currency 'x': currency code must be 3-4 uppercase characters, got 'X'"),
            (["convert", "--amount", "1", "--cm", "abc", "--economies", "F"], None,
             "--cm expects a decimal number, got 'abc'"),
            (["convert", "--amount", "1", "--cm", "1", "--economies", "F", "--decimals", "-1"], None,
             "--decimals must be >= 0"),
            (["cm", "--economies", "F", "--tetcy", "y", "--config", "{missing}"], None,
             "config file not found: {missing}"),
            (["cm", "--economies", "F", "--config", "{xml}", "--tetcy", "y"], None,
             "--tetcy expects a decimal number, got 'y'"),
            (["report", "--table", "5", "--config", "{xml}", "--currency", "x"], None,
             "--currency 'x': currency code must be 3-4 uppercase characters, got 'X'"),
        ],
        ids=["series-currency-first", "series-tetcy-first", "flag-before-env", "convert-cm-before-conflict",
             "convert-decimals-before-conflict", "config-file-before-flag", "flag-before-config-value",
             "report-flag-before-config-value"],
    )
    def test_first_fault_named(self, capsys, monkeypatch, tmp_path, argv, env, message):
        names = {"missing": str(tmp_path / "missing.json"), "xml": write_config(tmp_path, '{"format": "xml"}')}
        if env is not None:
            monkeypatch.setenv("MONMIN_TETCY", env)
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert (code, out, err.splitlines()[-1]) == (1, "", "usage error: " + message.format(**names))

    def test_config_value_a_flag_overrides_is_not_checked(self, capsys, tmp_path):
        config = write_config(tmp_path, json.dumps({"format": "xml", "decimals": "two", "tetcy": "y"}))
        code, out, err = run(capsys, "cm", "--economies", economies_arg(FIXTURES), "--format", "csv",
                             "--tetcy", "525600", "--config", config)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / "table1.csv").read_bytes()
        code, out, _ = run(capsys, "convert", "--amount", "1", "--cm", "8", "--decimals", "3",
                           "--tetcy", "525600", "--config", config)
        assert (code, out) == (0, "0.125\n")


class TestOneLineErrors:
    """Each diagnostic is one line of stderr, so its last line is the error, however many lines its message would take."""

    # Each dirty fixture through a command that loads it.
    DIRTY = {
        "economies": ["cm", "--economies"],
        "rates": ["report", "--table", "2", "--cm", "USD=1", "--rates"],
        "basket": ["percent", "--basket"],
        "series": ["series", "--series"],
    }

    @pytest.mark.parametrize("fmt", DIRTY)
    def test_every_line_a_dirty_file_gets_is_one_diagnostic(self, capsys, fmt):
        path = str(FIXTURES / f"dirty_{fmt}.csv")
        code, out, err = run(capsys, *self.DIRTY[fmt], path)
        diagnostic = re.compile(rf"{re.escape(path)}:\d+: (error|warning): |cm |Usage: |usage error: |error: ")
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if not diagnostic.match(line)] == []

    def test_a_rejected_files_issues_leave_in_one_write(self, capsys, monkeypatch):
        path = str(FIXTURES / "dirty_economies.csv")
        echo, writes = click.echo, []

        def counted(message=None, **kwargs):
            writes.append(message)
            echo(message, **kwargs)

        monkeypatch.setattr(click, "echo", counted)
        code, out, err = run(capsys, "cm", "--economies", path)
        assert (code, out, len(err.splitlines()), len(writes)) == (2, "", 16, 2)
        assert "".join(f"{message}\n" for message in writes) == err
        assert f"{path}:19: error: DuplicateCountry: North Land already defined on line 17" in err.splitlines()

    def test_the_writer_puts_each_message_on_one_line_and_writes_nothing_for_none(self, capsys):
        cli._stderr()
        assert capsys.readouterr() == ("", "")
        cli._stderr("North\nLand", " a \r\n b ")
        assert capsys.readouterr() == ("", "North Land\na b\n")

    def test_a_missing_choice_lists_its_values_on_the_line(self, capsys):
        code, out, err = run(capsys, "report")
        last = "usage error: Missing option '--table'. Choose from: 1, 2, 3, 4, 4b, 5"
        assert (code, out, err.splitlines()[-1]) == (1, "", last)

    def test_a_country_with_a_line_break_is_named_on_the_line(self, capsys, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text('country,currency,gdp,population,as_of\n"North\nLand",USD,100,10,2019-01-01\n')
        code, out, err = run(capsys, "convert", "--amount", "1", "--economies", str(path),
                             "--country", "North\nLand", "--currency", "EUR")
        assert (code, out, err) == (2, "", "error: North Land is in USD, not EUR\n")

    def test_a_basket_with_a_line_break_is_named_on_the_line(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text('country,currency,item,unit,amount,role\n"North\nLand",USD,Tea,box,1,item\n')
        code, out, err = run(capsys, "percent", "--basket", str(path))
        assert (code, out, err) == (2, "", "error: basket North Land has no salary row\n")


class TestCurrencyFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "--amount", "1", "--cm", "1", "--currency", "x"],
            ["series", "--series", str(FIXTURES / "series_us.csv"), "--currency", "usd1x"],
            ["report", "--table", "5", "--series", str(FIXTURES / "series_us.csv"), "--currency", ""],
            ["convert", "--amount", "1", "--cm", "1", "--currency", ""],  # given empty, not missing
        ],
        ids=["convert", "series", "report-5", "convert-empty"],
    )
    def test_malformed_currency_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith(f"usage error: --currency {argv[-1]!r}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--table", "1", "--economies", str(FIXTURES / "economies_table1.csv"), "--currency", "x"],
            ["report", "--table", "1", "--economies", str(FIXTURES / "missing.csv"), "--currency", "x"],
            ["report", "--table", "2", "--rates", str(FIXTURES / "rates_table2.csv"),
             "--cm", "USD=0.11918", "--currency", "us d"],
            ["report", "--table", "2", "--rates", str(FIXTURES / "missing.csv"),
             "--cm", "USD=0.11918", "--currency", "us d"],
        ],
        ids=["report-1", "report-1-missing-file", "report-2", "report-2-missing-file"],
    )
    def test_every_table_checks_currency_before_reading(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith(f"usage error: --currency {argv[-1]!r}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--table", "1", "--economies", str(FIXTURES / "economies_table1.csv")],
        ["--table", "4b", "--basket", str(FIXTURES / "basket_food.csv")],
        ["--table", "5", "--series", str(FIXTURES / "series_us.csv")],
    ],
    ids=["table-1", "table-4b", "table-5"],
)
def test_every_table_checks_cm_though_it_uses_none(capsys, argv):
    """Tables 1, 4b and 5 take no minute value, yet refuse a malformed ``--cm`` as basket and table 4 do."""
    code, out, err = run(capsys, "report", *argv, "--cm", "bad")
    assert (code, out, err.splitlines()[-1]) == (1, "", "usage error: --cm expects CODE=VALUE, got 'bad'")
    code, out, _ = run(capsys, "report", *argv, "--cm", "USD=1")
    assert (code, out) == (0, run(capsys, "report", *argv)[1])


# The listings' golden files are checked here, not through golden_runs():
# that list is also what the benchmark's paper-tables workload runs.
LISTING_GOLDENS = [
    ("basket_commodities.csv", "basket_commodities.stderr",
     ["basket", "--basket", str(FIXTURES / "basket_commodities.csv"),
      "--cm", "USD=0.121001", "--cm", "CZK=0.951979", "--cm", "EUR=0.077722", "--cm", "GBP=0.014648"]),
    ("percent_food.csv", None, ["percent", "--basket", str(FIXTURES / "basket_food.csv")]),
]


class TestListingGoldens:
    @pytest.mark.parametrize("stdout_name,stderr_name,argv", LISTING_GOLDENS,
                             ids=[name for name, _, _ in LISTING_GOLDENS])
    def test_bytes(self, capsys, stdout_name, stderr_name, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / stdout_name).read_bytes()
        expected_err = (GOLDEN / stderr_name).read_bytes() if stderr_name else b""
        assert err.encode("utf-8") == expected_err

    def test_out_file_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "listing.csv"
        name, _, argv = LISTING_GOLDENS[0]
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == (GOLDEN / name).read_bytes()


def write_basket_file(path, rows):
    path.write_text(
        "country,currency,item,unit,amount,role\n" + "".join(f"{row}\n" for row in rows),
        encoding="utf-8",
    )
    return str(path)


class TestPercentErrors:
    def test_zero_salary(self, capsys, tmp_path):
        path = write_basket_file(tmp_path / "b.csv", ["A,USD,Bread,kg,1.50,item", "A,USD,Salary,month,0.00,salary"])
        code, out, err = run(capsys, "percent", "--basket", path)
        assert (code, out, err) == (2, "", "error: salary must be > 0, got 0.00\n")

    def test_missing_salary(self, capsys, tmp_path):
        path = write_basket_file(tmp_path / "b.csv", ["A,USD,Bread,kg,1.50,item"])
        code, out, err = run(capsys, "percent", "--basket", path)
        assert (code, out, err) == (2, "", "error: basket A has no salary row\n")

    @pytest.mark.parametrize(
        "rows,message",
        [
            (["A,USD,Bread,kg,1.50,item", "A,USD,Salary,month,0.00,salary", "B,EUR,Bread,kg,2.00,item"],
             "salary must be > 0, got 0.00"),
            (["B,EUR,Bread,kg,2.00,item", "A,USD,Bread,kg,1.50,item", "A,USD,Salary,month,0,salary"],
             "basket B has no salary row"),
        ],
        ids=["zero-salary-first", "missing-salary-first"],
    )
    def test_first_failing_basket_in_file_order(self, capsys, tmp_path, rows, message):
        code, out, err = run(capsys, "percent", "--basket", write_basket_file(tmp_path / "b.csv", rows))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "rows,message",
        [
            (["A,USD,Bread,kg,1.50,item", "A,USD,Salary,month,0.00,salary", "B,EUR,Bread,kg,2.00,item"],
             "salary must be > 0, got 0.00"),
            (["B,EUR,Bread,kg,2.00,item", "A,USD,Bread,kg,1.50,item", "A,USD,Salary,month,0,salary"],
             "basket B has no salary row"),
        ],
        ids=["zero-salary-first", "missing-salary-first"],
    )
    def test_table4b_blames_the_same_basket(self, capsys, tmp_path, rows, message):
        path = write_basket_file(tmp_path / "b.csv", rows)
        code, out, err = run(capsys, "report", "--table", "4b", "--basket", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_table4b_refuses_a_repeated_label(self, capsys, tmp_path):
        """The listing keeps every quote; the table would print one label's last amount on both rows."""
        rows = ["A,USD,Bread,kg,1,item", "A,USD,Bread,kg,2,item", "A,USD,Salary,month,100,salary"]
        path = write_basket_file(tmp_path / "b.csv", rows)
        code, out, err = run(capsys, "report", "--table", "4b", "--basket", path)
        assert (code, out, err) == (2, "", "error: basket A/USD lists ('Bread', 'kg') more than once\n")
        code, out, _ = run(capsys, "percent", "--basket", path)
        assert code == 0 and out.splitlines()[1:3] == ["A,USD,Bread,kg,1.00", "A,USD,Bread,kg,2.00"]


class TestNumericFlags:
    """Non-finite numbers are usage errors naming the flag; --decimals prints every digit."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["convert", "--amount", "1", "--cm", "NaN"], "--cm"),
            (["convert", "--amount", "1", "--cm", "Infinity"], "--cm"),
            (["convert", "--amount", "NaN", "--cm", "1"], "--amount"),
            (["parity", "--rate", "1", "--ref", "sNaN", "--local", "1"], "--ref"),
            (["parity", "--rate", "-Infinity", "--ref", "1", "--local", "1"], "--rate"),
            (["basket", "--basket", str(FIXTURES / "basket_commodities.csv"), "--cm", "USD=NaN"], "--cm"),
            (["cm", "--economies", str(FIXTURES / "economies_table1.csv"), "--tetcy", "NaN"], "--tetcy"),
            (["cm", "--economies", str(FIXTURES / "economies_table1.csv"), "--tetcy", "Infinity"], "--tetcy"),
        ],
        ids=["convert-cm-nan", "convert-cm-inf", "convert-amount-nan", "parity-ref-snan",
             "parity-rate-minus-inf", "basket-cm-nan", "cm-tetcy-nan", "cm-tetcy-inf"],
    )
    def test_usage_error_without_traceback(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        message = err.splitlines()[-1]
        assert message.startswith(f"usage error: {flag} ")
        assert "Traceback" not in err and "InvalidOperation" not in err

    def test_non_finite_message(self, capsys):
        _, _, err = run(capsys, "convert", "--amount", "1", "--cm", "Infinity")
        assert err.splitlines()[-1] == "usage error: --cm expects a finite decimal number, got 'Infinity'"

    def test_decimals_limit_follows_the_result(self, capsys):
        # No 28-digit limit: 22 integer digits and 10 decimals print all 32
        code, out, _ = run(capsys, "convert", "--amount", "10", "--cm", "0.1", "--decimals", "25")
        assert (code, out) == (0, "100." + "0" * 25 + "\n")
        code, out, err = run(capsys, "convert", "--amount", "1E+20", "--cm", "0.1", "--decimals", "10")
        assert (code, out, err) == (0, "1" + "0" * 21 + "." + "0" * 10 + "\n", "")

    @pytest.mark.parametrize("places", [26, 30])
    def test_wide_decimals_print_every_digit(self, capsys, places):
        code, out, err = run(capsys, "convert", "--amount", "10", "--cm", "0.1", "--decimals", str(places))
        assert (code, out, err) == (0, "100." + "0" * places + "\n", "")

    def test_decimals_round_under_report_context(self, capsys):
        with decimal.localcontext(decimal.Context(prec=6)):
            code, out, err = run(capsys, "convert", "--amount", "10", "--cm", "0.1", "--decimals", "5")
        assert (code, out, err) == (0, "100.00000\n", "")


class TestConvertErrors:
    @pytest.mark.parametrize("amount,cm,flag,text", [
        ("1E+999999", "1E-999999", "--amount", "1E+999999"),
        ("1", "1E-999999", "--cm", "1E-999999"),
    ], ids=["amount", "cm"])
    def test_a_flag_past_the_input_range_is_usage_error(self, capsys, amount, cm, flag, text):
        """The quotient of ``--amount 1E+999999 --cm 1E-999999`` would pass the decimal range: its flags are refused first."""
        code, out, err = run(capsys, "convert", "--amount", amount, "--cm", cm)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"usage error: {outside(f'{flag} {text!r}')}"
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["two", 2.5, True, None])
    def test_config_decimals_not_a_whole_number_is_usage_error(self, capsys, tmp_path, value):
        config = tmp_path / "monmin.json"
        config.write_text(json.dumps({"decimals": value}))
        code, out, err = run(capsys, "convert", "--amount", "1", "--cm", "1", "--config", str(config))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"usage error: config decimals must be a whole number, got {value!r}"
        )

    def test_decimals_up_to_the_limit(self, capsys, tmp_path):
        code, out, err = run(capsys, "convert", "--amount", "1", "--cm", "8", "--decimals", "1000")
        assert (code, out, err) == (0, "0.125" + "0" * 997 + "\n", "")
        config = tmp_path / "monmin.json"
        config.write_text(json.dumps({"decimals": 1000}))
        code, out, _ = run(capsys, "convert", "--amount", "1", "--cm", "8", "--config", str(config))
        assert (code, out) == (0, "0.125" + "0" * 997 + "\n")

    def test_decimals_past_the_limit_is_usage_error_before_any_input(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        config = tmp_path / "monmin.json"
        config.write_text(json.dumps({"decimals": "1001"}))
        for argv in (
            ["--cm", "3", "--decimals", "1001"],
            ["--economies", missing, "--country", "X", "--decimals", "1001"],
            ["--economies", missing, "--country", "X", "--config", str(config)],
        ):
            code, out, err = run(capsys, "convert", "--amount", "1", *argv)
            assert (code, out) == (1, "")
            assert err.splitlines()[-1] == "usage error: --decimals must be <= 1000, got 1001"

    def test_config_decimals_as_number_or_text(self, capsys, tmp_path):
        config = tmp_path / "monmin.json"
        for value in (2, "2"):
            config.write_text(json.dumps({"decimals": value}))
            code, out, _ = run(capsys, "convert", "--amount", "1", "--cm", "3", "--config", str(config))
            assert (code, out) == (0, "0.33\n")


def run_bytes(capsysbinary, *argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


ANSI_ECONOMIES = (
    "country,currency,gdp,population,as_of\n"
    "A\x1b[31mland,USD,100,10,2019-01-01\n"
    "Česko,CZK,100,10,2019-01-01\n"
)


class TestStreamedOutput:
    """Tables are written straight to stdout or ``--out``: the same bytes either way."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cm", "--economies", "ANSI"],
            ["cm", "--economies", "ANSI", "--format", "text"],
            ["report", "--table", "1", "--economies", "ANSI"],
            ["series", "--series", str(FIXTURES / "series_us.csv")],
            ["percent", "--basket", str(FIXTURES / "basket_food.csv")],
            LISTING_GOLDENS[0][2],
        ],
        ids=["cm", "cm-text", "report-1", "series", "percent", "basket"],
    )
    def test_stdout_and_out_carry_identical_bytes(self, capsysbinary, tmp_path, argv):
        economies = tmp_path / "e.csv"
        economies.write_text(ANSI_ECONOMIES, encoding="utf-8")
        argv = [str(economies) if arg == "ANSI" else arg for arg in argv]
        target = tmp_path / "out.csv"
        code, out, _ = run_bytes(capsysbinary, *argv)
        code2, out2, _ = run_bytes(capsysbinary, *argv, "--out", str(target))
        assert code == code2 == 0 and out2 == b""
        assert out == target.read_bytes()
        if str(economies) in argv:
            assert "A\x1b[31mland".encode() in out and "Česko".encode() in out

    def test_non_utf8_input_exits_2_with_its_line(self, capsys, tmp_path):
        bad = tmp_path / "e.csv"
        bad.write_bytes(b"country,currency,gdp,population,as_of\n"
                        b"A,USD,100,10,2019-01-01\nCaf\xe9,USD,100,10,2019-01-01\n")
        code, out, err = run(capsys, "cm", "--economies", str(bad))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"{bad}:3: error: MalformedRow: not valid UTF-8: byte 0xE9 at column 4",
            f"error: {bad}: 1 error(s)",
        ]

    @pytest.mark.parametrize(
        "argv,want_code",
        [
            (["cm", "--economies", "DIRTY"], 2),
            (["report", "--table", "4", "--basket", str(FIXTURES / "basket_food.csv"),
              "--cm", "USD=0.12101"], 2),
            (["report", "--table", "4", "--basket", str(FIXTURES / "basket_food.csv")], 1),
            (["series", "--series", "SHORT", "--extrema"], 2),
        ],
        ids=["cm-dirty", "report-4-unknown-currency", "report-4-no-minute-value", "series-too-short"],
    )
    def test_failing_command_leaves_out_untouched(self, capsys, tmp_path, argv, want_code):
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("country,currency,gdp,population,as_of\nX,USD,100,0,2019-01-01\n")
        short = tmp_path / "short.csv"
        short.write_text("year,m1,gdp,population,events\n1960,1,2,3,\n1961,1,2,3,\n")
        argv = [{"DIRTY": str(dirty), "SHORT": str(short)}.get(arg, arg) for arg in argv]
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"keep,me\n1,2\n")
        absent = tmp_path / "absent.csv"
        for target in (existing, absent):
            code, out, _ = run(capsys, *argv, "--out", str(target))
            assert (code, out) == (want_code, "")
        assert existing.read_bytes() == b"keep,me\n1,2\n"
        assert not absent.exists()


STREAMED_GOLDENS = golden_runs() + [(name, argv) for name, _, argv in LISTING_GOLDENS]


@pytest.mark.parametrize("name,argv", STREAMED_GOLDENS, ids=[name for name, _ in STREAMED_GOLDENS])
def test_render_table_equals_the_bytes_write_table_writes(capsys, monkeypatch, tmp_path, name, argv):
    """Every golden table, as the command builds it: rendered to a string or written to a file."""
    write = report.write_table
    calls = []

    def recording(spec, rows, sink, fmt="csv"):
        rows = list(rows)
        calls.append((spec, rows, fmt))
        write(spec, rows, sink, fmt)

    monkeypatch.setattr(report, "write_table", recording)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    [(spec, rows, fmt)] = calls
    target = tmp_path / "table"
    with open(target, "w", encoding="utf-8", newline="") as sink:
        write(spec, rows, sink, fmt)
    assert target.read_bytes() == report.render_table(spec, rows, fmt).encode("utf-8")
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


def test_emit_plot_data_equals_the_bytes_write_plot_data_writes(tmp_path):
    series, _ = load_series(FIXTURES / "series_us.csv")
    minutes = series_in_monmin(series)
    extrema = detect_extrema(minutes)
    target = tmp_path / "plot.csv"
    with open(target, "w", encoding="utf-8", newline="") as sink:
        report.write_plot_data(series, sink, extrema, minutes)
    assert target.read_bytes() == report.emit_plot_data(series, extrema).encode("utf-8")
    assert target.read_bytes() == (GOLDEN / "plot_series_us.csv").read_bytes()


class TestFixedPointCells:
    """Fixed-decimal cells and ``convert --decimals`` print plain digits, never an exponent."""

    def test_cm_below_one_millionth(self, capsys, tmp_path):
        tiny = tmp_path / "e.csv"
        tiny.write_text("country,currency,gdp,population,as_of\nTiny,XBT,0.05,1,2019-01-01\n")
        code, out, err = run(capsys, "cm", "--economies", str(tiny))
        assert code == 0, err
        assert out.splitlines()[1] == "Tiny,XBT,0,1,0,0.0000001,computed_from_gdp"

    @pytest.mark.parametrize(
        "cm,decimals,printed",
        [("1000000000", "8", "0.00000000"), ("3000000", "7", "0.0000003")],
    )
    def test_convert_decimals(self, capsys, cm, decimals, printed):
        code, out, err = run(capsys, "convert", "--amount", "1", "--cm", cm, "--decimals", decimals)
        assert (code, out) == (0, printed + "\n"), err


def outside(what: str) -> str:
    return f"{what} is outside the input range (exponent -99999 to 99999)"


# What ``main`` prints for a figure past the decimal range, which no input in the range reaches.
LAST_RESORT = "error: Overflow: a result exceeds the decimal range (largest exponent 999999)"
TABLE1_HEADER = "country,currency,gdp,population,gdp_per_capita,cm,source\n"


def overflow_when_dividing_by(monkeypatch, divisor):
    """Make each ``x / divisor`` of the report layer raise ``decimal.Overflow``, as a figure past the range would."""
    def truediv(a, b):
        if b == divisor:
            raise decimal.Overflow
        return operator.truediv(a, b)

    monkeypatch.setattr(report, "truediv", truediv)


class TestInputRange:
    """A number past the input range is refused where it is read, never with a traceback.

    A flag is a usage error that names it (exit 1), read before any file;
    a file cell is an error on its line (exit 2).  These inputs once made a
    figure past the decimal range, or under it.
    """

    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            (["cm", "--economies", economies_arg(FIXTURES)], "--tetcy", "1E-999999"),
            (["report", "--table", "1", "--economies", economies_arg(FIXTURES)], "--tetcy", "1E-999999"),
            (["basket", "--basket", str(FIXTURES / "basket_commodities.csv"), "--economies", economies_arg(FIXTURES)],
             "--tetcy", "1E-999999"),
            (["convert", "--amount", "1", "--economies", economies_arg(FIXTURES), "--country", "Japan"],
             "--tetcy", "1E-999999"),
            (["series", "--series", str(FIXTURES / "series_us.csv")], "--tetcy", "1E+999999"),
            (["report", "--table", "5", "--series", str(FIXTURES / "series_us.csv")], "--tetcy", "1E+999999"),
            (["parity", "--ref", "9E+999999", "--local", "1"], "--rate", "9E+999999"),
            (["parity", "--ref", "1", "--local", "1E-999999"], "--rate", "1E+999999"),
            (["parity", "--rate", "1", "--local", "1"], "--ref", "9E+999999"),
            (["parity", "--rate", "1", "--ref", "1"], "--local", "1E-999999"),
            (["report", "--table", "2", "--rates", str(FIXTURES / "rates_table2.csv")], "--cm", "USD=9E+999999"),
            (["report", "--table", "2", "--rates", str(FIXTURES / "rates_table2.csv")], "--cm", "USD=1E-999999"),
            (["basket", "--basket", str(FIXTURES / "basket_commodities.csv"),
              "--cm", "CZK=1", "--cm", "EUR=1", "--cm", "GBP=1"], "--cm", "USD=1E-999999"),
            (["report", "--table", "4", "--basket", str(FIXTURES / "basket_food.csv"),
              "--economies", economies_arg(FIXTURES)], "--cm", "USD=1E-999999"),
        ],
        ids=["cm", "report-1", "basket", "convert", "series", "report-5", "parity-product", "parity-quotient",
             "parity-ref", "parity-local", "report-2-huge", "report-2-tiny", "basket-cm", "report-4-cm"],
    )
    def test_a_flag_past_the_range_is_a_usage_error_naming_it(self, capsys, argv, flag, text):
        code, out, err = run(capsys, argv[0], flag, text, *argv[1:])  # the first flag given is the one named
        number = text.partition("=")[2] or text
        assert (code, out, err.splitlines()[-1]) == (1, "", f"usage error: {outside(f'{flag} {number!r}')}")
        assert "Traceback" not in err

    def test_a_gdp_past_the_range_is_an_error_on_its_line(self, capsys, tmp_path):
        economies = tmp_path / "e.csv"
        economies.write_text(
            "country,currency,gdp,population,as_of\n"
            "Small,USD,1E-999990,10,2019-01-01\nBig,EUR,1E+400,10,2019-01-01\nHuge,GBP,1E+500,10,2019-01-01\n"
        )
        code, out, err = run(capsys, "cm", "--economies", str(economies))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"{economies}:2: error: MalformedRow: {outside(repr('1E-999990'))}", f"error: {economies}: 1 error(s)",
        ]

    @pytest.mark.parametrize("command", [["percent"], ["report", "--table", "4b"]], ids=["percent", "report-4b"])
    def test_an_amount_past_the_range_is_an_error_on_its_line(self, capsys, tmp_path, command):
        basket = write_basket_file(tmp_path / "b.csv", [
            "A,USD,Bread,kg,1,item", "A,USD,Gold,oz,9E+999999,item", "A,USD,Pay,month,1,salary",
        ])
        code, out, err = run(capsys, *command, "--basket", basket)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"{basket}:3: error: MalformedRow: {outside(repr('9E+999999'))}", f"error: {basket}: 1 error(s)",
        ]

    def test_rows_before_a_failing_row_stay_on_stdout(self, capsys, monkeypatch, tmp_path):
        """Output is streamed: the row before the one whose figure fails is written, then the last-resort line."""
        economies = tmp_path / "e.csv"
        economies.write_text(
            "country,currency,gdp,population,as_of\n"
            "Small,USD,1,10,2019-01-01\nBig,EUR,1E+400,7,2019-01-01\nHuge,GBP,1E+500,10,2019-01-01\n"
        )
        overflow_when_dividing_by(monkeypatch, 7)
        code, out, err = run(capsys, "cm", "--economies", str(economies))
        assert (code, out) == (2, TABLE1_HEADER + "Small,USD,1,10,0,0.0000002,computed_from_gdp\n")
        assert err.splitlines() == [LAST_RESORT]

    def test_minute_value_note_at_the_edge_stays_short(self, capsys):
        """The ``cm CODE=...`` note of the smallest minute value a flag takes is not 100,000 zeros long."""
        code, _, err = run(
            capsys, "report", "--table", "4", "--basket", str(FIXTURES / "basket_food.csv"),
            "--economies", economies_arg(FIXTURES), "--cm", "USD=1E-99999",
        )
        assert code == 0
        assert len(err.encode()) < 4096
        assert "cm USD=1E-99999 source=manual" in err.splitlines()


class TestMinuteValueNotes:
    """Each minute value used is noted in fixed point unless that takes more than 30 zeros."""

    @pytest.mark.parametrize(
        "value,text",
        [
            ("0.12101", "0.12101"),
            ("1E-30", "0." + "0" * 29 + "1"),
            ("9.5E+30", "95" + "0" * 29),
            ("1E-31", "1E-31"),
            ("1E+31", "1E+31"),
            ("2.5E-999999", "2.5E-999999"),
        ],
    )
    def test_note(self, capsys, value, text):
        cms = {"USD": MonMinValue(CurrencyCode("USD"), D(value))}
        _note_cm_sources(cms)
        assert capsys.readouterr().err == f"cm USD={text} source=manual\n"

    def test_scientific_note_under_lower_case_exponent_context(self, capsys, tmp_path):
        basket = write_basket_file(tmp_path / "b.csv", ["US,USD,bread,loaf,1,item", "US,USD,pay,month,2,salary"])
        with decimal.localcontext(decimal.Context(capitals=0)):
            code, _, err = run(capsys, "basket", "--basket", basket, "--cm", "USD=1E-40")
        assert code == 0
        assert err.splitlines() == ["cm USD=1E-40 source=manual"]


class TestOutputFileReplacedOnSuccess:
    """``--out`` is written to a temporary file beside it, which replaces it only on success."""

    TABLE4 = ["report", "--table", "4", "--basket", str(FIXTURES / "basket_food.csv"),
              "--cm", "EUR=0.07772", "--cm", "GBP=0.014548", "--cm", "JPY=8.2873",
              "--cm", "CNY=0.0347", "--cm", "CZK=0.95198"]

    @pytest.mark.parametrize("command", ["report-4", "cm", "basket"])
    def test_a_failure_after_the_header_leaves_out_as_it_was(self, capsys, monkeypatch, tmp_path, command):
        """A figure of the first row raises ``decimal.Overflow`` once the header is written."""
        big = tmp_path / "big.csv"
        big.write_text("country,currency,gdp,population,as_of\nBig,USD,1E+400,7,2019-01-01\n")
        argv, divisor = {
            "report-4": ([*self.TABLE4, "--cm", "USD=0.12101"], D("0.12101")),
            "cm": (["cm", "--economies", str(big)], 7),
            "basket": (["basket", "--basket", str(FIXTURES / "basket_commodities.csv"),
                        "--cm", "USD=0.12101", "--cm", "CZK=1", "--cm", "EUR=1", "--cm", "GBP=1"], D("0.12101")),
        }[command]
        overflow_when_dividing_by(monkeypatch, divisor)
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"keep,me\n1,2\n")
        absent = tmp_path / "absent.csv"
        for target in (existing, absent):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert (code, out, err.splitlines()[-1]) == (2, "", LAST_RESORT)
        assert existing.read_bytes() == b"keep,me\n1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "existing.csv"]

    def test_a_new_file_gets_the_mode_open_gives_and_a_replaced_one_keeps_its_own(
        self, capsys, tmp_path
    ):
        argv = [*self.TABLE4, "--cm", "USD=0.12101"]
        reference, new, kept = tmp_path / "reference", tmp_path / "new.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        os.chmod(kept, 0o604)
        umask = os.umask(0o027)
        try:
            open(reference, "w").close()
            results = [run(capsys, *argv, "--out", str(target)) for target in (new, kept)]
        finally:
            os.umask(umask)
        assert [code for code, _, _ in results] == [0, 0]
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o640
        assert stat.S_IMODE(kept.stat().st_mode) == 0o604
        assert kept.read_bytes() == new.read_bytes() == (GOLDEN / "table4.csv").read_bytes()

    def test_a_symlink_stays_and_the_file_it_names_is_replaced(self, capsys, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        code, _, _ = run(capsys, *self.TABLE4, "--cm", "USD=0.12101", "--out", str(link))
        assert code == 0 and link.is_symlink()
        assert real.read_bytes() == (GOLDEN / "table4.csv").read_bytes()

    def test_a_read_only_file_is_refused_as_open_refuses_it(self, capsys, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"keep,me\n")
        os.chmod(kept, 0o444)
        try:
            os.close(os.open(kept, os.O_WRONLY))
        except PermissionError:
            pass
        else:
            pytest.skip("this user may write a read-only file (root, for one)")
        code, out, err = run(capsys, *self.TABLE4, "--cm", "USD=0.12101", "--out", str(kept))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: [Errno 13] Permission denied: '{kept}'"
        assert kept.read_bytes() == b"keep,me\n"
        assert stat.S_IMODE(kept.stat().st_mode) == 0o444
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]

    @pytest.mark.parametrize("missing", ["--out", "--plot-data"])
    def test_series_replaces_neither_file_when_the_other_cannot_be_written(
        self, capsys, tmp_path, missing
    ):
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"keep,me\n")
        nowhere = tmp_path / "no" / "such.csv"
        paths = {"--out": nowhere, "--plot-data": kept} if missing == "--out" else {
            "--out": kept, "--plot-data": nowhere}
        code, out, err = run(
            capsys, "series", "--series", str(FIXTURES / "series_us.csv"), "--extrema",
            "--out", str(paths["--out"]), "--plot-data", str(paths["--plot-data"]),
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{nowhere}'"]
        assert kept.read_bytes() == b"keep,me\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]

    def test_a_taken_temporary_name_is_passed_over(self, capsys, monkeypatch, tmp_path):
        out, taken = tmp_path / "t.csv", tmp_path / f".t.csv.{'00' * 4}.tmp"
        taken.write_bytes(b"another writer's\n")
        draws = iter([b"\0" * 4, b"\1" * 4])
        monkeypatch.setattr(os, "urandom", lambda size: next(draws))
        assert run(capsys, *self.TABLE4, "--cm", "USD=0.12101", "--out", str(out))[:2] == (0, "")
        assert out.read_bytes() == (GOLDEN / "table4.csv").read_bytes()
        assert taken.read_bytes() == b"another writer's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "t.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the table fits the pipe's buffer
        try:
            code, _, _ = run(capsys, "report", "--table", "4b", "--basket",
                             str(FIXTURES / "basket_food.csv"), "--out", str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0 and stat.S_ISFIFO(fifo.stat().st_mode)
        assert data == (GOLDEN / "table4b.csv").read_bytes()


class TestGarbageCollectorState:
    """``main`` runs the command with the cyclic collector off and then puts it back as it was.

    It freezes nothing: only ``entry`` does, once the command is over.
    """

    ARGVS = {
        0: ["cm", "--economies", str(FIXTURES / "economies_table1.csv")],
        1: ["cm"],
        2: ["cm", "--economies", "missing.csv"],
    }

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("want_code", [0, 1, 2])
    def test_state_is_restored(self, capsys, monkeypatch, collecting, want_code):
        seen = []
        write = report.write_table

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            write(*args, **kwargs)

        monkeypatch.setattr(report, "write_table", recording)
        was = gc.isenabled()
        frozen = gc.get_freeze_count()
        (gc.enable if collecting else gc.disable)()
        try:
            code, _, _ = run(capsys, *self.ARGVS[want_code])
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert code == want_code
        assert seen == ([False] if want_code == 0 else [])
        assert gc.get_freeze_count() == frozen


class TestConsoleEntry:
    """``entry``, behind the ``monmin`` script and ``python -m monmin.cli``, and whole processes run through it."""

    @pytest.mark.parametrize("want_code", [0, 1, 2])
    def test_exits_with_mains_code_after_freezing(self, monkeypatch, want_code):
        frozen = gc.get_freeze_count()
        calls = []

        def fake_main():
            calls.append(("main", gc.get_freeze_count()))
            return want_code

        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(sys, "exit", lambda code: calls.append(("exit", code, gc.get_freeze_count() > frozen)))
        try:
            cli.entry()
        finally:
            gc.unfreeze()
        assert calls == [("main", frozen), ("exit", want_code, True)]

    @staticmethod
    def command(*argv) -> dict:
        """``Popen`` arguments for ``python -m monmin.cli argv`` on the sources under test, stdin empty."""
        env = {key: value for key, value in os.environ.items() if key != "MONMIN_TETCY"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent),
                                                          os.environ.get("PYTHONPATH")]))
        return {"args": [sys.executable, "-m", "monmin.cli", *argv], "stdin": subprocess.DEVNULL, "env": env}

    def monmin(self, *argv) -> subprocess.CompletedProcess:
        """One ``python -m monmin.cli`` process, its stdout and stderr captured as bytes."""
        return subprocess.run(**self.command(*argv), capture_output=True, timeout=120)

    def test_report_prints_the_golden_table(self):
        result = self.monmin("report", "--table", "1", "--economies", str(FIXTURES / "economies_table1.csv"))
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (GOLDEN / "table1.csv").read_bytes()

    def test_no_arguments_print_the_help(self):
        result = self.monmin()
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == self.monmin("--help").stdout

    def test_usage_error_exits_1(self):
        result = self.monmin("cm")
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode().splitlines()[-1] == "usage error: Missing option '--economies'."

    def test_data_error_exits_2_with_the_in_process_stderr(self, capsys):
        argv = ["cm", "--economies", str(FIXTURES / "dirty_economies.csv")]
        code, out, err = run(capsys, *argv)
        result = self.monmin(*argv)
        assert (code, out) == (2, "")
        assert (result.returncode, result.stdout, result.stderr.decode()) == (2, b"", err)

    def test_out_file_gets_the_golden_bytes(self, tmp_path):
        out = tmp_path / "table1.csv"
        result = self.monmin("report", "--table", "1", "--economies", str(FIXTURES / "economies_table1.csv"),
                             "--out", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
        assert out.read_bytes() == (GOLDEN / "table1.csv").read_bytes()

    def test_a_reader_that_closes_early_gets_status_1_and_no_stderr(self, tmp_path):
        economies = tmp_path / "economies.csv"
        lines = ["country,currency,gdp,population,as_of"]
        lines += [f"Land {i:05d},USD,{20891400000000 + i},{328467812 + i},2019-01-01" for i in range(5000)]
        economies.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with subprocess.Popen(**self.command("cm", "--economies", str(economies)),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            head = child.stdout.read(16)
            child.stdout.close()  # the table, some 400 KB, is far larger than the pipe's buffer
            err = child.stderr.read()
            code = child.wait(timeout=120)
        assert head == b"country,currency"
        assert (code, err) == (1, b"")
