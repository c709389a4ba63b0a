//! A minimal XML writer.
//!
//! Three of the four manifest formats (DASH MPD, SmoothStreaming, HDS F4M)
//! are XML documents. The writers build an [`Element`] tree and serialize
//! it: elements, attributes, text content and self-closing tags, with the
//! five predefined entities escaped. Namespace prefixes are kept verbatim.

use std::fmt::Write as _;

/// An XML element tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Tag name (with any namespace prefix verbatim).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Text content directly inside this element.
    pub text: String,
}

impl Element {
    /// Creates an element with a tag name.
    pub fn new(name: impl Into<String>) -> Element {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new(), text: String::new() }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Element {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: Element) -> Element {
        self.children.push(child);
        self
    }

    /// Sets text content (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.text = text.into();
        self
    }

    /// Serializes the tree as a document with an XML declaration.
    pub fn to_document(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            let _ = write!(out, " {}=\"{}\"", k, escape(v));
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write_into(out, depth + 1);
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        let _ = writeln!(out, "</{}>", self.name);
    }
}

/// Escapes the five predefined XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
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
    fn text_content_and_entities() {
        let doc = Element::new("note").with_text("a < b & \"c\"");
        let text = doc.to_document();
        assert!(text.contains("&lt;"));
        assert!(text.contains("&amp;"));
        assert!(text.contains("<note>a &lt; b &amp; &quot;c&quot;</note>"));
    }
}
