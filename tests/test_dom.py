"""Tests for the HTML parser and DOM query engine."""

import pytest

from repro.core.dom import parse_html
from repro.errors import BqtError

SAMPLE = """
<html><body>
<div id="main" class="wrap outer">
  <ul class="items">
    <li class="item">one
    <li class="item special">two
    <li class="item">three</li>
  </ul>
  <form id="f" action="/go" method="post">
    <label for="a">Street address</label>
    <input type="text" id="a" name="addr" value="12 Oak">
    <select name="pick">
      <option value="1">first</option>
      <option value="2" selected>second</option>
    </select>
    <button type="submit" name="choice" value="0">Go</button>
  </form>
</div>
</body></html>
"""


@pytest.fixture(scope="module")
def doc():
    return parse_html(SAMPLE)


class TestParsing:
    def test_root_is_document(self, doc):
        assert doc.tag == "document"

    def test_unclosed_li_handled(self, doc):
        items = doc.select("li.item")
        assert len(items) == 3
        assert [i.full_text() for i in items] == ["one", "two", "three"]

    def test_void_elements(self):
        node = parse_html("<div><input name='x'><p>after</p></div>")
        assert node.select_one("input") is not None
        assert node.select_one("p").full_text() == "after"

    def test_entities_decoded(self):
        node = parse_html("<p>a &amp; b &lt;c&gt;</p>")
        assert node.select_one("p").full_text() == "a & b <c>"

    def test_self_closing(self):
        node = parse_html("<div><br/><span>x</span></div>")
        assert node.select_one("span").full_text() == "x"

    def test_mismatched_close_tolerated(self):
        node = parse_html("<div><b>bold</div></b><p>next</p>")
        assert node.select_one("p") is not None

    def test_attrs_without_value(self):
        node = parse_html("<input required name='q'>")
        assert node.select_one("input").attr("required") == ""


class TestSelectors:
    def test_by_id(self, doc):
        assert doc.select_one("#main").tag == "div"

    def test_by_class(self, doc):
        assert len(doc.select(".item")) == 3

    def test_tag_and_class(self, doc):
        assert len(doc.select("li.special")) == 1

    def test_multi_class(self, doc):
        assert doc.select_one("div.wrap.outer") is not None
        assert doc.select_one("div.wrap.missing") is None

    def test_attribute_presence(self, doc):
        assert doc.select_one("[name]") is not None

    def test_attribute_value(self, doc):
        assert doc.select_one("input[name=addr]") is not None
        assert doc.select_one("input[name=nope]") is None

    def test_descendant(self, doc):
        assert len(doc.select("ul li")) == 3
        assert doc.select("form li") == []

    def test_select_on_subtree(self, doc):
        form = doc.select_one("form#f")
        assert form.select_one("select[name=pick]") is not None
        assert form.select("li") == []

    def test_button_by_name(self, doc):
        button = doc.select_one("button[name=choice]")
        assert button.attr("value") == "0"

    def test_empty_selector_raises(self, doc):
        with pytest.raises(BqtError):
            doc.select("   ")

    def test_unterminated_attribute_raises(self, doc):
        with pytest.raises(BqtError):
            doc.select("input[name=x")


class TestForms:
    def test_form_fields_defaults(self, doc):
        form = doc.select_one("form#f")
        fields = form.form_fields()
        assert fields["addr"] == "12 Oak"
        assert fields["pick"] == "2"  # the selected option

    def test_form_fields_on_non_form_raises(self, doc):
        with pytest.raises(BqtError):
            doc.select_one("ul").form_fields()

    def test_find_forms(self, doc):
        assert len(doc.find_forms()) == 1


class TestText:
    def test_full_text_normalizes_whitespace(self):
        node = parse_html("<p>  a\n   b\t c  </p>")
        assert node.select_one("p").full_text() == "a b c"

    def test_nested_text(self, doc):
        assert doc.select_one("form").full_text().startswith("Street address")

    def test_repr(self, doc):
        assert "div" in repr(doc.select_one("#main"))

    def test_walk_excludes_text_nodes(self, doc):
        assert all(not n.is_text for n in doc.walk())
