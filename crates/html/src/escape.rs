//! HTML entity decoding and encoding.
//!
//! Only the entities that actually occur in the synthetic web (and the
//! numeric forms used by obfuscated payloads) are supported; unknown
//! entities are passed through verbatim, matching lenient browser
//! behaviour.

/// Decodes HTML entities in `input`.
///
/// Supports the named entities `&amp;`, `&lt;`, `&gt;`, `&quot;`,
/// `&apos;`, `&nbsp;` and numeric character references in decimal
/// (`&#65;`) and hexadecimal (`&#x41;`) form. Unknown or malformed
/// entities are emitted unchanged.
///
/// # Examples
///
/// ```
/// assert_eq!(slum_html::escape::decode_entities("a &lt; b"), "a < b");
/// assert_eq!(slum_html::escape::decode_entities("&#x41;&#66;"), "AB");
/// assert_eq!(slum_html::escape::decode_entities("&bogus;"), "&bogus;");
/// ```
pub fn decode_entities(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut copied = 0;
    while let Some(amp) = input[copied..].find('&').map(|i| copied + i) {
        out.push_str(&input[copied..amp]);
        // The terminating ';' must fall within a reasonable window.
        let rest = &input[amp + 1..];
        let semi = rest.char_indices().take(12).find(|&(_, c)| c == ';');
        match semi.and_then(|(end, _)| Some((end, decode_entity_body(&rest[..end])?))) {
            Some((end, ch)) => {
                out.push(ch);
                copied = amp + 1 + end + 1;
            }
            None => {
                out.push('&');
                copied = amp + 1;
            }
        }
    }
    out.push_str(&input[copied..]);
    out
}

/// Decodes a single entity body (the text between `&` and `;`).
pub(crate) fn decode_entity_body(body: &str) -> Option<char> {
    let named = match body {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        "nbsp" => Some('\u{a0}'),
        _ => None,
    };
    if named.is_some() {
        return named;
    }
    let digits = body.strip_prefix('#')?;
    let code = if let Some(hex) = digits.strip_prefix('x').or_else(|| digits.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        digits.parse::<u32>().ok()?
    };
    char::from_u32(code)
}

/// Encodes the characters that are unsafe inside HTML text or attribute
/// values.
///
/// ```
/// assert_eq!(slum_html::escape::encode_text(r#"<a href="x">"#), "&lt;a href=&quot;x&quot;&gt;");
/// ```
pub fn encode_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities_decode() {
        assert_eq!(decode_entities("&amp;&lt;&gt;&quot;&apos;"), "&<>\"'");
    }

    #[test]
    fn numeric_decimal_decodes() {
        assert_eq!(decode_entities("&#72;&#105;"), "Hi");
    }

    #[test]
    fn numeric_hex_decodes_both_cases() {
        assert_eq!(decode_entities("&#x48;&#X69;"), "Hi");
    }

    #[test]
    fn unknown_entity_passes_through() {
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
    }

    #[test]
    fn unterminated_entity_passes_through() {
        assert_eq!(decode_entities("a & b"), "a & b");
        assert_eq!(decode_entities("&ampnope"), "&ampnope");
    }

    #[test]
    fn invalid_codepoint_passes_through() {
        // Surrogate code point is not a valid char.
        assert_eq!(decode_entities("&#xD800;"), "&#xD800;");
    }

    #[test]
    fn round_trip_encode_decode() {
        let original = r#"<iframe src="http://a/?q=1&r=2">"#;
        assert_eq!(decode_entities(&encode_text(original)), original);
    }

    #[test]
    fn nbsp_decodes() {
        assert_eq!(decode_entities("a&nbsp;b"), "a\u{a0}b");
    }
}
