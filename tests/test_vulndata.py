import pytest

from pkgraph.graph import PropertyGraph
from pkgraph.vulndata import (
    CsvError,
    CveRecord,
    CweRecord,
    build_knowledge_graph,
    parse_cve_csv,
    parse_cwe_csv,
)

CWE_HEADER = b"cwe_id,name,description,function_events\n"
CVE_HEADER = b"cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"


class TestParseCweCsv:
    def test_single_event(self):
        rows = parse_cwe_csv(CWE_HEADER + b"CWE-415,Double free,desc,free\n")
        assert rows[0].cwe_id == "CWE-415"
        assert rows[0].function_events == ["free"]

    def test_multiple_events(self):
        rows = parse_cwe_csv(
            CWE_HEADER + b"CWE-242,Use of inherently dangerous function,desc,gets;atoi;atol;atof\n"
        )
        assert rows[0].function_events == ["gets", "atoi", "atol", "atof"]

    def test_header_only(self):
        assert parse_cwe_csv(CWE_HEADER) == []

    def test_bad_cwe_id(self):
        with pytest.raises(CsvError) as exc:
            parse_cwe_csv(CWE_HEADER + b"CWE-x,name,desc,free\n")
        assert exc.value.line == 2

    def test_empty_name(self):
        with pytest.raises(CsvError):
            parse_cwe_csv(CWE_HEADER + b"CWE-415,,desc,free\n")

    def test_wrong_column_count(self):
        with pytest.raises(CsvError):
            parse_cwe_csv(CWE_HEADER + b"CWE-415,name,desc\n")

    def test_error_line_is_where_the_record_starts(self):
        with pytest.raises(CsvError) as exc:
            parse_cwe_csv(CWE_HEADER + b'CWE-415,n,"two\nlines",free\nBAD,n,d,free\n')
        assert (exc.value.line, exc.value.reason) == (4, "malformed cwe_id 'BAD'")

    def test_id_with_a_trailing_newline(self):
        with pytest.raises(CsvError) as exc:
            parse_cwe_csv(CWE_HEADER + b'CWE-415,n,d,free\n"CWE-242\n",n,d,gets\n')
        assert (exc.value.line, exc.value.reason) == (3, "malformed cwe_id 'CWE-242\\n'")


class TestParseCveCsv:
    def test_basic_row(self):
        rows = parse_cve_csv(CVE_HEADER + b"CVE-2020-0001,desc,CWE-415,7.5,ExampleLib,1.0;1.1\n")
        record = rows[0]
        assert record.cve_id == "CVE-2020-0001"
        assert record.cwe_id == "CWE-415"
        assert record.cvss2_score == 7.5
        assert record.product == "ExampleLib"
        assert record.affected_versions == ["1.0", "1.1"]

    def test_score_out_of_range(self):
        with pytest.raises(CsvError):
            parse_cve_csv(CVE_HEADER + b"CVE-2020-0001,desc,CWE-415,11.0,P,1.0\n")

    def test_non_numeric_score(self):
        with pytest.raises(CsvError):
            parse_cve_csv(CVE_HEADER + b"CVE-2020-0001,desc,CWE-415,high,P,1.0\n")

    @pytest.mark.parametrize(
        "cell",
        ["0_5", "\uff17.5", "-0.0", "+7.5", " 7.5", "7.5 ", "1e1", "nan", "inf", ".5", "5.", ""],
    )
    def test_score_that_is_not_digits_is_non_numeric(self, cell):
        row = f"CVE-2020-0001,desc,CWE-415,{cell},P,1.0\n".encode()
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(CVE_HEADER + row)
        assert (exc.value.line, exc.value.reason) == (2, f"non-numeric cvss2_score {cell!r}")

    @pytest.mark.parametrize(
        "cell, score", [("0", 0.0), ("10", 10.0), ("10.0", 10.0), ("007.50", 7.5), ("0.0", 0.0)]
    )
    def test_score_of_digits(self, cell, score):
        row = f"CVE-2020-0001,desc,CWE-415,{cell},P,1.0\n".encode()
        (record,) = parse_cve_csv(CVE_HEADER + row)
        assert repr(record.cvss2_score) == repr(score)

    def test_repeated_score_cells(self):
        rows = b"".join(
            f"CVE-2020-000{i},desc,CWE-415,{cell},P,1.0\n".encode()
            for i, cell in enumerate(["7.5", "7.5", "10", "7.5", "10.5"], start=1)
        )
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(CVE_HEADER + rows)
        assert (exc.value.line, exc.value.reason) == (6, "cvss2_score 10.5 outside [0.0, 10.0]")
        records = parse_cve_csv(CVE_HEADER + rows.rsplit(b"CVE-", 1)[0])
        assert [record.cvss2_score for record in records] == [7.5, 7.5, 10.0, 7.5]

    def test_score_past_ten_names_its_value(self):
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(CVE_HEADER + b"CVE-2020-0001,desc,CWE-415,10.01,P,1.0\n")
        assert exc.value.reason == "cvss2_score 10.01 outside [0.0, 10.0]"

    def test_empty_versions(self):
        rows = parse_cve_csv(CVE_HEADER + b"CVE-2020-0001,desc,CWE-415,7.5,P,\n")
        assert rows[0].affected_versions == []

    def test_malformed_cve_id(self):
        with pytest.raises(CsvError):
            parse_cve_csv(CVE_HEADER + b"CVE-20-1,desc,CWE-415,7.5,P,\n")

    def test_error_line_is_where_the_record_starts(self):
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(
                CVE_HEADER
                + b'CVE-2020-0001,"two\nlines",CWE-415,7.5,P,1.0\n'
                + b"CVE-2020-0002,d,CWE-415,high,P,1.0\n"
            )
        assert (exc.value.line, exc.value.reason) == (4, "non-numeric cvss2_score 'high'")

    def test_id_with_a_trailing_newline(self):
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(CVE_HEADER + b'"CVE-2020-0001\n",d,CWE-415,7.5,P,1.0\n')
        assert (exc.value.line, exc.value.reason) == (2, "malformed cve_id 'CVE-2020-0001\\n'")


OVERSIZED_CELL = b"x" * 140_000


class TestUnreadableCsv:
    """Bytes the csv module cannot read are a CsvError on the line where
    reading stopped, not a decoding or csv exception."""

    @pytest.mark.parametrize(
        "data, line, reason",
        [
            pytest.param(
                CWE_HEADER + b"CWE-415,Double free,d\xe9,free\n", 2, "not UTF-8", id="latin-1"
            ),
            pytest.param(
                CWE_HEADER + b"CWE-415,n,d,free\nCWE-416,n,\"a\nb\xff\",free\n",
                4,
                "not UTF-8",
                id="latin-1-in-multiline-cell",
            ),
            pytest.param(b"\xef\xbb", 1, "not UTF-8", id="truncated-bom"),
            pytest.param(
                CWE_HEADER + b"CWE-415,n," + OVERSIZED_CELL + b",free\n",
                2,
                "field larger",
                id="oversized-cell",
            ),
            pytest.param(
                CWE_HEADER + b"CWE-415,n,d,free\nCWE-416,n,\"a\nb" + OVERSIZED_CELL + b"\",f\n",
                4,
                "field larger",
                id="oversized-multiline-cell",
            ),
        ],
    )
    def test_cwe_catalog(self, data, line, reason):
        with pytest.raises(CsvError) as exc:
            parse_cwe_csv(data)
        assert exc.value.line == line
        assert reason in exc.value.reason

    def test_cve_catalog(self):
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(CVE_HEADER + b"CVE-2020-0001,d\xe9sc,CWE-415,7.5,P,1.0\n")
        assert exc.value.line == 2

    def test_nul_byte(self):
        """Python 3.10's csv module rejects a NUL; later versions read it
        and the id check rejects the row. Either way it is line 2."""
        with pytest.raises(CsvError) as exc:
            parse_cwe_csv(CWE_HEADER + b"CWE-415\0,n,d,free\n")
        assert exc.value.line == 2


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A catalog may start with a UTF-8 byte-order mark, as spreadsheets'
    "CSV UTF-8" exports write; errors keep their lines."""

    def test_cwe_catalog(self):
        data = CWE_HEADER + b"CWE-415,Double free,desc,free\n"
        assert parse_cwe_csv(BOM + data) == parse_cwe_csv(data)

    def test_cve_catalog(self):
        data = CVE_HEADER + b"CVE-2020-0001,desc,CWE-415,7.5,Lib,1.0;1.1\n"
        assert parse_cve_csv(BOM + data) == parse_cve_csv(data)

    def test_bad_byte_on_line_two(self):
        """The mark's three bytes would put the line-2 byte on line 1 if
        the error's offset were counted in the bytes with the mark."""
        with pytest.raises(CsvError) as exc:
            parse_cwe_csv(BOM + CWE_HEADER + b"\xffCWE-415,n,d,free\n")
        assert (exc.value.line, exc.value.reason) == (2, "not UTF-8: invalid start byte")

    def test_invalid_row_on_line_three(self):
        with pytest.raises(CsvError) as exc:
            parse_cve_csv(
                BOM + CVE_HEADER + b"CVE-2020-0001,d,CWE-415,7.5,P,1.0\nCVE-x,d,CWE-415,7.5,P,1.0\n"
            )
        assert (exc.value.line, exc.value.reason) == (3, "malformed cve_id 'CVE-x'")


def cwe(cwe_id="CWE-415", events=("free",)):
    return CweRecord(cwe_id, "Double free", "desc", list(events))


def cve(cve_id="CVE-2020-0001", cwe_id="CWE-415", product="Lib", versions=("1.0", "1.1")):
    return CveRecord(cve_id, "desc", cwe_id, 7.5, product, list(versions))


class TestBuildKnowledgeGraph:
    def test_single_pair_counts(self):
        g = PropertyGraph()
        stats = build_knowledge_graph([cwe()], [cve()], g)
        # 1 CWE + 1 CVE + 1 Score + 2 Product; HAS_CVE + SCORED + 2 AFFECTS
        assert (stats.nodes_created, stats.edges_created, stats.orphan_cves) == (5, 4, 0)
        assert g.node_count == 5
        assert g.edge_count == 4

    def test_empty_inputs(self):
        stats = build_knowledge_graph([], [], PropertyGraph())
        assert (stats.nodes_created, stats.edges_created, stats.orphan_cves) == (0, 0, 0)

    def test_product_dedup(self):
        g = PropertyGraph()
        build_knowledge_graph(
            [cwe()],
            [cve(), cve(cve_id="CVE-2020-0002", versions=("1.0",))],
            g,
        )
        products = g.find_nodes("Product", {"Name": "Lib", "Version": "1.0"})
        assert len(products) == 1
        assert len(g.in_edges(products[0].id)) == 2

    def test_orphan_cve(self):
        g = PropertyGraph()
        stats = build_knowledge_graph([cwe()], [cve(cwe_id="CWE-999")], g)
        assert stats.orphan_cves == 1
        cve_node = g.find_nodes("CVE")[0]
        assert not any(e.type == "HAS_CVE" for e in g.in_edges(cve_node.id))

    def test_cve_edge_invariants(self):
        g = PropertyGraph()
        build_knowledge_graph([cwe()], [cve(), cve(cve_id="CVE-2021-1111")], g)
        for node in g.find_nodes("CVE"):
            out = [e.type for e in g.out_edges(node.id)]
            assert out.count("SCORED") == 1
            incoming = [e.type for e in g.in_edges(node.id)]
            assert incoming.count("HAS_CVE") <= 1

    def test_function_events_stored_as_list(self):
        g = PropertyGraph()
        build_knowledge_graph([cwe()], [], g)
        node = g.find_nodes("CWE", {"CWE-ID": "CWE-415"})[0]
        assert node.properties["Function Events"] == ["free"]

    def test_deterministic_rebuild(self):
        def build():
            g = PropertyGraph()
            build_knowledge_graph([cwe(), cwe("CWE-242", ("gets", "atoi"))], [cve()], g)
            return [(n.label, sorted(n.properties.items())) for n in g.nodes()], [
                (e.source, e.target, e.type) for e in g.edges()
            ]

        assert build() == build()
