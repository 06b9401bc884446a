//! A forgiving HTML tokenizer.
//!
//! The tokenizer turns raw markup into a flat stream of [`Token`]s. It
//! never fails: malformed input degrades into text tokens, mirroring how
//! browsers cope with the broken markup that is endemic on the kind of
//! low-quality sites found on traffic exchanges.

use crate::escape::decode_entities;

/// A single lexical unit of an HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An opening tag such as `<iframe src="...">`. Attribute names are
    /// lower-cased; values are entity-decoded.
    StartTag {
        /// Lower-cased tag name.
        name: String,
        /// Attributes in source order. Duplicate names are preserved.
        attrs: Vec<(String, String)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// A closing tag such as `</iframe>`.
    EndTag {
        /// Lower-cased tag name.
        name: String,
    },
    /// A run of character data (entity-decoded).
    Text(String),
    /// An HTML comment, with the `<!--`/`-->` delimiters stripped.
    Comment(String),
    /// A doctype declaration, e.g. `html` for `<!DOCTYPE html>`.
    Doctype(String),
}

/// Elements whose content is raw text (no nested markup) per the HTML
/// spec. `<script>` bodies in particular must not be re-tokenized, since
/// obfuscated JavaScript routinely contains `<` and `>`.
const RAW_TEXT_ELEMENTS: [&str; 4] = ["script", "style", "textarea", "title"];

/// Tokenizes `input` into a vector of [`Token`]s.
///
/// The tokenizer is total: any byte sequence that is valid UTF-8 produces
/// a token stream without panicking.
///
/// # Examples
///
/// ```
/// use slum_html::{tokenize, Token};
///
/// let tokens = tokenize("<p class=a>hi</p>");
/// assert_eq!(tokens.len(), 3);
/// assert!(matches!(&tokens[1], Token::Text(t) if t == "hi"));
/// ```
pub fn tokenize(input: &str) -> Vec<Token> {
    Tokenizer::new(input).run()
}

struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    tokens: Vec<Token>,
}

impl<'a> Tokenizer<'a> {
    fn new(input: &'a str) -> Self {
        Tokenizer { input, pos: 0, tokens: Vec::new() }
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.input.len() {
            if self.rest().starts_with("<!--") {
                self.consume_comment();
            } else if self.rest().starts_with("<!") {
                self.consume_doctype();
            } else if self.rest().starts_with("</") {
                self.consume_end_tag();
            } else if self.rest().starts_with('<') && self.looks_like_tag() {
                self.consume_start_tag();
            } else {
                self.consume_text();
            }
        }
        self.tokens
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// A `<` only opens a tag when followed by an ASCII letter; otherwise
    /// it is literal text (e.g. `a < b` in script-free prose).
    fn looks_like_tag(&self) -> bool {
        self.rest()[1..].chars().next().is_some_and(|c| c.is_ascii_alphabetic())
    }

    fn consume_text(&mut self) {
        let rest = self.rest();
        let mut end = rest.len();
        let mut iter = rest.char_indices();
        // Skip the current char (which may itself be `<` that failed the
        // tag test) and stop at the next plausible tag opener.
        let _ = iter.next();
        for (i, c) in iter {
            if c == '<' {
                let after = &rest[i + 1..];
                let opener = after
                    .chars()
                    .next()
                    .is_some_and(|n| n.is_ascii_alphabetic() || n == '/' || n == '!');
                if opener {
                    end = i;
                    break;
                }
            }
        }
        let text = &rest[..end];
        self.pos += end;
        if !text.is_empty() {
            self.tokens.push(Token::Text(decode_entities(text)));
        }
    }

    fn consume_comment(&mut self) {
        let rest = &self.rest()[4..];
        let (body, advance) = match rest.find("-->") {
            Some(end) => (&rest[..end], 4 + end + 3),
            None => (rest, self.input.len() - self.pos),
        };
        self.tokens.push(Token::Comment(body.to_string()));
        self.pos += advance;
    }

    fn consume_doctype(&mut self) {
        let rest = &self.rest()[2..];
        let (body, advance) = match rest.find('>') {
            Some(end) => (&rest[..end], 2 + end + 1),
            None => (rest, self.input.len() - self.pos),
        };
        self.tokens.push(Token::Doctype(body.trim().to_string()));
        self.pos += advance;
    }

    fn consume_end_tag(&mut self) {
        let rest = &self.rest()[2..];
        let (body, advance) = match rest.find('>') {
            Some(end) => (&rest[..end], 2 + end + 1),
            None => (rest, self.input.len() - self.pos),
        };
        let body = body.trim();
        let name_end = body.find(char::is_whitespace).unwrap_or(body.len());
        let name = body[..name_end].to_ascii_lowercase();
        self.pos += advance;
        if !name.is_empty() {
            self.tokens.push(Token::EndTag { name });
        }
    }

    fn consume_start_tag(&mut self) {
        let rest = self.rest();
        let Some(gt) = find_tag_end(rest) else {
            // No closing `>`: treat the remainder as text.
            self.tokens.push(Token::Text(decode_entities(rest)));
            self.pos = self.input.len();
            return;
        };
        let body = &rest[1..gt];
        let self_closing = body.ends_with('/');
        let body = body.strip_suffix('/').unwrap_or(body);
        let (name, attrs) = parse_tag_body(body);
        self.pos += gt + 1;

        let raw = RAW_TEXT_ELEMENTS.into_iter().find(|raw| *raw == name && !self_closing);
        self.tokens.push(Token::StartTag { name, attrs, self_closing });

        if let Some(raw) = raw {
            self.consume_raw_text(raw);
        }
    }

    /// After a raw-text start tag, scoop everything up to the matching
    /// case-insensitive end tag into a single text token.
    fn consume_raw_text(&mut self, name: &str) {
        let rest = self.rest();
        match find_closer(rest, name) {
            Some(idx) => {
                let body = &rest[..idx];
                if !body.is_empty() {
                    self.tokens.push(Token::Text(body.to_string()));
                }
                // Consume the end tag too.
                let after = &rest[idx..];
                let end = after.find('>').map(|g| idx + g + 1).unwrap_or(rest.len());
                self.pos += end;
                self.tokens.push(Token::EndTag { name: name.to_string() });
            }
            None => {
                if !rest.is_empty() {
                    self.tokens.push(Token::Text(rest.to_string()));
                }
                self.pos = self.input.len();
                self.tokens.push(Token::EndTag { name: name.to_string() });
            }
        }
    }
}

/// The byte offset of the first `</` in `s` followed by `name` in any
/// ASCII case: the closer of a raw-text element named `name`. Only the
/// name's length is compared, so `</scripts` closes a `script` too.
fn find_closer(s: &str, name: &str) -> Option<usize> {
    let closes = |i: usize| {
        let after = &s.as_bytes()[i + 2..];
        after.get(..name.len()).is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()))
    };
    s.match_indices("</").map(|(i, _)| i).find(|&i| closes(i))
}

/// Finds the index of the `>` terminating a tag that starts at byte 0 of
/// `s`, honouring quoted attribute values which may contain `>`.
fn find_tag_end(s: &str) -> Option<usize> {
    let mut quote: Option<char> = None;
    for (i, c) in s.char_indices().skip(1) {
        match (quote, c) {
            (None, '"') | (None, '\'') => quote = Some(c),
            (Some(q), c2) if q == c2 => quote = None,
            (None, '>') => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses a tag body (`name attr=val attr2="val2"`) into a lower-cased
/// name plus attribute list.
///
/// Tag names are truncated at the first character outside
/// `[A-Za-z0-9-]` — hostile markup like `<a"""">` yields element `a`,
/// keeping serialization round-trippable.
fn parse_tag_body(body: &str) -> (String, Vec<(String, String)>) {
    let name_end = body
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '-'))
        .map(|(i, _)| i)
        .unwrap_or(body.len());
    let name = body[..name_end].to_ascii_lowercase();
    let mut attrs = Vec::new();
    let mut rest = &body[name_end..];
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            break;
        }
        // Attribute name.
        let name_len = rest
            .char_indices()
            .find(|&(_, c)| c == '=' || c.is_whitespace())
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        let attr_name = rest[..name_len].to_ascii_lowercase();
        rest = rest[name_len..].trim_start();
        if let Some(after_eq) = rest.strip_prefix('=') {
            let after_eq = after_eq.trim_start();
            let (value, advance) = parse_attr_value(after_eq);
            attrs.push((attr_name, decode_entities(value)));
            rest = &after_eq[advance..];
        } else {
            // Boolean attribute.
            if !attr_name.is_empty() {
                attrs.push((attr_name, String::new()));
            }
        }
    }
    (name, attrs)
}

/// Splits an attribute value (quoted or bare) off the front of `s`:
/// the raw value, borrowed, and the number of bytes consumed.
fn parse_attr_value(s: &str) -> (&str, usize) {
    match s.chars().next() {
        Some(q @ ('"' | '\'')) => {
            let rest = &s[1..];
            match rest.find(q) {
                Some(end) => (&rest[..end], end + 2),
                None => (rest, s.len()),
            }
        }
        Some(_) => {
            let end = s.find(char::is_whitespace).unwrap_or(s.len());
            (&s[..end], end)
        }
        None => ("", 0),
    }
}

/// The tokenizer as it was before it found raw-text closers in place
/// and decoded attribute values from the borrowed slice: it lowercases
/// the whole rest of the document for every raw-text element, copies
/// each attribute value twice and decodes entities one char at a time.
/// Kept as the reference model [`tokenize`] is held to.
#[cfg(test)]
mod reference {
    use super::{find_tag_end, Token, RAW_TEXT_ELEMENTS};
    use crate::escape::decode_entity_body;

    /// Today's `decode_entities`, one char at a time.
    fn decode_entities(input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        let mut chars = input.char_indices().peekable();
        while let Some((start, c)) = chars.next() {
            if c != '&' {
                out.push(c);
                continue;
            }
            let rest = &input[start + 1..];
            let semi = rest.char_indices().take(12).find(|&(_, rc)| rc == ';');
            let Some((semi_off, _)) = semi else {
                out.push('&');
                continue;
            };
            let body = &rest[..semi_off];
            match decode_entity_body(body) {
                Some(ch) => {
                    out.push(ch);
                    for _ in 0..body.chars().count() + 1 {
                        chars.next();
                    }
                }
                None => out.push('&'),
            }
        }
        out
    }

    pub(super) fn tokenize(input: &str) -> Vec<Token> {
        Tokenizer::new(input).run()
    }

    struct Tokenizer<'a> {
        input: &'a str,
        pos: usize,
        tokens: Vec<Token>,
    }

    impl<'a> Tokenizer<'a> {
        fn new(input: &'a str) -> Self {
            Tokenizer { input, pos: 0, tokens: Vec::new() }
        }

        fn run(mut self) -> Vec<Token> {
            while self.pos < self.input.len() {
                if self.rest().starts_with("<!--") {
                    self.consume_comment();
                } else if self.rest().starts_with("<!") {
                    self.consume_doctype();
                } else if self.rest().starts_with("</") {
                    self.consume_end_tag();
                } else if self.rest().starts_with('<') && self.looks_like_tag() {
                    self.consume_start_tag();
                } else {
                    self.consume_text();
                }
            }
            self.tokens
        }

        fn rest(&self) -> &'a str {
            &self.input[self.pos..]
        }

        /// A `<` only opens a tag when followed by an ASCII letter; otherwise
        /// it is literal text (e.g. `a < b` in script-free prose).
        fn looks_like_tag(&self) -> bool {
            self.rest()[1..].chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        }

        fn consume_text(&mut self) {
            let rest = self.rest();
            let mut end = rest.len();
            let mut iter = rest.char_indices();
            // Skip the current char (which may itself be `<` that failed the
            // tag test) and stop at the next plausible tag opener.
            let _ = iter.next();
            for (i, c) in iter {
                if c == '<' {
                    let after = &rest[i + 1..];
                    let opener = after
                        .chars()
                        .next()
                        .is_some_and(|n| n.is_ascii_alphabetic() || n == '/' || n == '!');
                    if opener {
                        end = i;
                        break;
                    }
                }
            }
            let text = &rest[..end];
            self.pos += end;
            if !text.is_empty() {
                self.tokens.push(Token::Text(decode_entities(text)));
            }
        }

        fn consume_comment(&mut self) {
            let rest = &self.rest()[4..];
            let (body, advance) = match rest.find("-->") {
                Some(end) => (&rest[..end], 4 + end + 3),
                None => (rest, self.input.len() - self.pos),
            };
            self.tokens.push(Token::Comment(body.to_string()));
            self.pos += advance;
        }

        fn consume_doctype(&mut self) {
            let rest = &self.rest()[2..];
            let (body, advance) = match rest.find('>') {
                Some(end) => (&rest[..end], 2 + end + 1),
                None => (rest, self.input.len() - self.pos),
            };
            self.tokens.push(Token::Doctype(body.trim().to_string()));
            self.pos += advance;
        }

        fn consume_end_tag(&mut self) {
            let rest = &self.rest()[2..];
            let (body, advance) = match rest.find('>') {
                Some(end) => (&rest[..end], 2 + end + 1),
                None => (rest, self.input.len() - self.pos),
            };
            let name: String = body
                .trim()
                .chars()
                .take_while(|c| !c.is_whitespace())
                .collect::<String>()
                .to_ascii_lowercase();
            self.pos += advance;
            if !name.is_empty() {
                self.tokens.push(Token::EndTag { name });
            }
        }

        fn consume_start_tag(&mut self) {
            let rest = self.rest();
            let Some(gt) = find_tag_end(rest) else {
                // No closing `>`: treat the remainder as text.
                self.tokens.push(Token::Text(decode_entities(rest)));
                self.pos = self.input.len();
                return;
            };
            let body = &rest[1..gt];
            let self_closing = body.ends_with('/');
            let body = body.strip_suffix('/').unwrap_or(body);
            let (name, attrs) = parse_tag_body(body);
            self.pos += gt + 1;

            let is_raw = RAW_TEXT_ELEMENTS.contains(&name.as_str()) && !self_closing;
            self.tokens.push(Token::StartTag { name: name.clone(), attrs, self_closing });

            if is_raw {
                self.consume_raw_text(&name);
            }
        }

        /// After a raw-text start tag, scoop everything up to the matching
        /// case-insensitive end tag into a single text token.
        fn consume_raw_text(&mut self, name: &str) {
            let rest = self.rest();
            let closer = format!("</{name}");
            let lower = rest.to_ascii_lowercase();
            match lower.find(&closer) {
                Some(idx) => {
                    let body = &rest[..idx];
                    if !body.is_empty() {
                        self.tokens.push(Token::Text(body.to_string()));
                    }
                    // Consume the end tag too.
                    let after = &rest[idx..];
                    let end = after.find('>').map(|g| idx + g + 1).unwrap_or(rest.len());
                    self.pos += end;
                    self.tokens.push(Token::EndTag { name: name.to_string() });
                }
                None => {
                    if !rest.is_empty() {
                        self.tokens.push(Token::Text(rest.to_string()));
                    }
                    self.pos = self.input.len();
                    self.tokens.push(Token::EndTag { name: name.to_string() });
                }
            }
        }
    }

    /// Parses a tag body (`name attr=val attr2="val2"`) into a lower-cased
    /// name plus attribute list.
    ///
    /// Tag names are truncated at the first character outside
    /// `[A-Za-z0-9-]` — hostile markup like `<a"""">` yields element `a`,
    /// keeping serialization round-trippable.
    fn parse_tag_body(body: &str) -> (String, Vec<(String, String)>) {
        let name_end = body
            .char_indices()
            .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '-'))
            .map(|(i, _)| i)
            .unwrap_or(body.len());
        let name = body[..name_end].to_ascii_lowercase();
        let mut attrs = Vec::new();
        let mut rest = &body[name_end..];
        loop {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            // Attribute name.
            let name_len = rest
                .char_indices()
                .find(|&(_, c)| c == '=' || c.is_whitespace())
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let attr_name = rest[..name_len].to_ascii_lowercase();
            rest = rest[name_len..].trim_start();
            if let Some(after_eq) = rest.strip_prefix('=') {
                let after_eq = after_eq.trim_start();
                let (value, advance) = parse_attr_value(after_eq);
                attrs.push((attr_name, decode_entities(&value)));
                rest = &after_eq[advance..];
            } else {
                // Boolean attribute.
                if !attr_name.is_empty() {
                    attrs.push((attr_name, String::new()));
                }
            }
        }
        (name, attrs)
    }

    /// Parses an attribute value (quoted or bare) and returns it along with
    /// the number of bytes consumed.
    fn parse_attr_value(s: &str) -> (String, usize) {
        let mut chars = s.chars();
        match chars.next() {
            Some(q @ ('"' | '\'')) => {
                let rest = &s[1..];
                match rest.find(q) {
                    Some(end) => (rest[..end].to_string(), end + 2),
                    None => (rest.to_string(), s.len()),
                }
            }
            Some(_) => {
                let end = s.find(char::is_whitespace).unwrap_or(s.len());
                (s[..end].to_string(), end)
            }
            None => (String::new(), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tokens: &[Token], idx: usize) -> (&str, &[(String, String)]) {
        match &tokens[idx] {
            Token::StartTag { name, attrs, .. } => (name.as_str(), attrs.as_slice()),
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn simple_element_round() {
        let t = tokenize("<div>hello</div>");
        assert_eq!(t.len(), 3);
        assert_eq!(start(&t, 0).0, "div");
        assert!(matches!(&t[1], Token::Text(s) if s == "hello"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "div"));
    }

    #[test]
    fn attributes_parse_quoted_and_bare() {
        let t = tokenize(r#"<iframe src="http://x/" width=1 hidden>"#);
        let (name, attrs) = start(&t, 0);
        assert_eq!(name, "iframe");
        assert_eq!(attrs[0], ("src".into(), "http://x/".into()));
        assert_eq!(attrs[1], ("width".into(), "1".into()));
        assert_eq!(attrs[2], ("hidden".into(), String::new()));
    }

    #[test]
    fn attr_value_with_gt_inside_quotes() {
        let t = tokenize(r#"<a title="a > b">x</a>"#);
        let (_, attrs) = start(&t, 0);
        assert_eq!(attrs[0].1, "a > b");
    }

    #[test]
    fn script_body_is_raw_text() {
        let js = "if (a < b && b > c) { document.write('<iframe>'); }";
        let html = format!("<script>{js}</script>");
        let t = tokenize(&html);
        assert_eq!(t.len(), 3);
        assert!(matches!(&t[1], Token::Text(s) if s == js));
    }

    #[test]
    fn script_end_tag_case_insensitive() {
        let t = tokenize("<script>x=1</SCRIPT>after");
        assert!(matches!(&t[1], Token::Text(s) if s == "x=1"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "script"));
        assert!(matches!(&t[3], Token::Text(s) if s == "after"));
    }

    #[test]
    fn comment_and_doctype() {
        let t = tokenize("<!DOCTYPE html><!-- hidden --><p>x</p>");
        assert!(matches!(&t[0], Token::Doctype(d) if d == "DOCTYPE html"));
        assert!(matches!(&t[1], Token::Comment(c) if c == " hidden "));
    }

    #[test]
    fn self_closing_tag() {
        let t = tokenize("<br/><img src=x />");
        assert!(matches!(&t[0], Token::StartTag { self_closing: true, .. }));
        assert!(matches!(&t[1], Token::StartTag { self_closing: true, .. }));
    }

    #[test]
    fn stray_lt_is_text() {
        let t = tokenize("1 < 2 and 3 > 2");
        assert_eq!(t.len(), 1);
        assert!(matches!(&t[0], Token::Text(s) if s == "1 < 2 and 3 > 2"));
    }

    #[test]
    fn unterminated_tag_becomes_text() {
        let t = tokenize("<div class=");
        assert!(matches!(&t[0], Token::Text(_)));
    }

    #[test]
    fn unterminated_comment_is_swallowed() {
        let t = tokenize("<!-- never ends");
        assert!(matches!(&t[0], Token::Comment(c) if c == " never ends"));
    }

    #[test]
    fn unterminated_script_closes_at_eof() {
        let t = tokenize("<script>var x = 1;");
        assert!(matches!(&t[1], Token::Text(s) if s == "var x = 1;"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "script"));
    }

    #[test]
    fn entity_in_text_decodes() {
        let t = tokenize("<p>a &amp; b</p>");
        assert!(matches!(&t[1], Token::Text(s) if s == "a & b"));
    }

    #[test]
    fn uppercase_tag_name_lowered() {
        let t = tokenize("<IFRAME SRC='x'></IFRAME>");
        let (name, attrs) = start(&t, 0);
        assert_eq!(name, "iframe");
        assert_eq!(attrs[0].0, "src");
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn raw_text_closers_match_in_any_case_and_by_prefix() {
        let t = tokenize("<title>a</TiTlE >b<script>c</scripts>d");
        assert!(matches!(&t[1], Token::Text(s) if s == "a"));
        assert!(matches!(&t[5], Token::Text(s) if s == "c"));
        assert!(matches!(&t[6], Token::EndTag { name } if name == "script"));
        assert!(matches!(&t[7], Token::Text(s) if s == "d"));
    }

    /// Markup pieces the generated documents are spliced from: raw-text
    /// elements with closers in mixed case and closers that only start
    /// with the element's name, entities whole and truncated, `>` inside
    /// quoted values, unterminated tags and non-ASCII text. An entity
    /// decodes only when its `;` is among the 12 chars after its `&`:
    /// the two zero-padded references sit on either side of that edge.
    const PIECES: &[&str] = &[
        "<script>", "</script>", "</ScRiPt >", "</SCRIPT", "</scripts>", "</scrip", "<style>",
        "</Style>", "<textarea>", "</textarea x>", "<title>", "</TITLE>", "<title/>",
        "<script/>", "<p class=\"a > b\">", "<a href='x>y' title=\"&amp;&lt;\">",
        "<iframe src=\"http://x/?a=1&amp;b=2\" width=1>", "<IFRAME SRC='é'>", "<a b=c d>",
        "<img src=x />", "<br/>", "<div", " id=\"", "=", "\"", "'", "<", ">", "</", "</ >",
        "<!--", "-->", "<!DOCTYPE html>", "<!x", "&amp;", "&lt;", "&#65;", "&#x41;", "&#X4a;",
        "&amp", "&#", "&#x;", "&bogus;", "&#xD800;", "&nbsp;", "&&amp;",
        "&averyverylongname;", "&#0000000065;", "&#00000000065;", "&#1114112;", "é", "日本語",
        "ß", "\u{212a}", "İ", " ", "\n",
        "\t", "x", "<DIV>", "</div>",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The tokenizer emits exactly the tokens its reference model
        /// does.
        #[test]
        fn tokenize_matches_the_reference_model(
            pieces in proptest::collection::vec(
                (0..PIECES.len() + 1, "[a-zA-Z<>/=\"'&;#! -]{0,6}"),
                0..48,
            ),
        ) {
            let html: String = pieces
                .iter()
                .map(|(i, free)| PIECES.get(*i).copied().unwrap_or(free))
                .collect();
            proptest::prop_assert_eq!(tokenize(&html), reference::tokenize(&html), "{:?}", html);
        }
    }
}
