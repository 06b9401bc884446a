//! Flash (SWF) behavioural model.
//!
//! The paper's §V-D decompiles a malicious Flash file (`AdFlash46.swf`)
//! and finds an invisible, full-page movie clip whose click handler fires
//! `ExternalInterface.call` into obfuscated JavaScript, opening pop-up
//! advertisements. Real SWF bytecode is out of scope (and Flash is dead);
//! instead the synthetic web embeds *SWF descriptors* — a compact textual
//! format capturing exactly the behavioural surface the analysis needs —
//! and this module parses and "executes" them.
//!
//! Descriptor grammar (one directive per `;`-separated field):
//!
//! ```text
//! SWF1;name=AdFlash46;fullpage;transparent;allowdomain=*;onclick=AdFlash.onClick,window.NqPnfu
//! ```

use crate::sandbox::Effect;

/// A parsed SWF descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfMovie {
    /// Movie name (class name in the decompiled source).
    pub name: String,
    /// Whether the stage is scaled to cover the whole page
    /// (`StageScaleMode.EXACT_FIT` over a full-page embed).
    pub full_page: bool,
    /// Whether the movie is rendered transparent (`wmode=transparent`).
    pub transparent: bool,
    /// Value of `Security.allowDomain(...)`, if called.
    pub allow_domain: Option<String>,
    /// `ExternalInterface.call` targets fired from the MOUSE_UP handler.
    pub on_click_calls: Vec<String>,
    /// `ExternalInterface.call` targets fired on load.
    pub on_load_calls: Vec<String>,
}

/// Error parsing an SWF descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSwfError {
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseSwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid swf descriptor: {}", self.reason)
    }
}

impl std::error::Error for ParseSwfError {}

impl SwfMovie {
    /// Parses a descriptor string.
    ///
    /// # Errors
    ///
    /// Fails when the magic `SWF1` header is missing or a directive is
    /// unknown.
    pub fn parse(descriptor: &str) -> Result<SwfMovie, ParseSwfError> {
        let mut fields = descriptor.trim().split(';');
        let magic = fields.next().unwrap_or_default();
        if magic != "SWF1" {
            return Err(ParseSwfError { reason: format!("bad magic {magic:?}") });
        }
        let mut movie = SwfMovie {
            name: "unnamed".into(),
            full_page: false,
            transparent: false,
            allow_domain: None,
            on_click_calls: Vec::new(),
            on_load_calls: Vec::new(),
        };
        for field in fields {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            match field.split_once('=') {
                None => match field {
                    "fullpage" => movie.full_page = true,
                    "transparent" => movie.transparent = true,
                    other => {
                        return Err(ParseSwfError { reason: format!("unknown flag {other:?}") })
                    }
                },
                Some((key, value)) => match key {
                    "name" => movie.name = value.to_string(),
                    "allowdomain" => movie.allow_domain = Some(value.to_string()),
                    "onclick" => {
                        movie.on_click_calls =
                            value.split(',').map(|s| s.trim().to_string()).collect()
                    }
                    "onload" => {
                        movie.on_load_calls =
                            value.split(',').map(|s| s.trim().to_string()).collect()
                    }
                    other => {
                        return Err(ParseSwfError { reason: format!("unknown key {other:?}") })
                    }
                },
            }
        }
        Ok(movie)
    }

    /// Simulates loading the movie: returns the effects of its `onload`
    /// external calls.
    pub fn load(&self) -> Vec<Effect> {
        self.on_load_calls
            .iter()
            .map(|name| Effect::ExternalCall { name: name.clone(), args: Vec::new() })
            .collect()
    }

    /// Simulates a user click anywhere on the page while the movie is
    /// present. For a full-page transparent movie this hijacks the click
    /// (the §V-D click-jacking pattern); otherwise clicks only land when
    /// aimed at the movie itself (`aimed_at_movie`).
    pub fn click(&self, aimed_at_movie: bool) -> Vec<Effect> {
        let hijacks_all_clicks = self.full_page && self.transparent;
        if !aimed_at_movie && !hijacks_all_clicks {
            return Vec::new();
        }
        self.on_click_calls
            .iter()
            .map(|name| Effect::ExternalCall { name: name.clone(), args: Vec::new() })
            .collect()
    }

    /// True when the movie exhibits the invisible-clickjack pattern:
    /// full-page + transparent + click handler calling out to JS.
    pub fn is_clickjack(&self) -> bool {
        self.full_page && self.transparent && !self.on_click_calls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADFLASH: &str =
        "SWF1;name=AdFlash46;fullpage;transparent;allowdomain=*;onclick=AdFlash.onClick,window.NqPnfu";

    #[test]
    fn parses_paper_example() {
        let m = SwfMovie::parse(ADFLASH).unwrap();
        assert_eq!(m.name, "AdFlash46");
        assert!(m.full_page);
        assert!(m.transparent);
        assert_eq!(m.allow_domain.as_deref(), Some("*"));
        assert_eq!(m.on_click_calls, vec!["AdFlash.onClick", "window.NqPnfu"]);
        assert!(m.is_clickjack());
    }

    #[test]
    fn click_anywhere_hijacked_when_fullpage_transparent() {
        let m = SwfMovie::parse(ADFLASH).unwrap();
        let effects = m.click(false);
        assert_eq!(effects.len(), 2);
        assert!(matches!(&effects[0], Effect::ExternalCall { name, .. } if name == "AdFlash.onClick"));
    }

    #[test]
    fn benign_banner_only_reacts_to_direct_clicks() {
        let m = SwfMovie::parse("SWF1;name=banner;onclick=Banner.track").unwrap();
        assert!(!m.is_clickjack());
        assert!(m.click(false).is_empty());
        assert_eq!(m.click(true).len(), 1);
    }

    #[test]
    fn onload_calls_fire_on_load() {
        let m = SwfMovie::parse("SWF1;name=x;onload=Boot.init").unwrap();
        let effects = m.load();
        assert!(matches!(&effects[0], Effect::ExternalCall { name, .. } if name == "Boot.init"));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(SwfMovie::parse("FWS9;whatever").is_err());
        assert!(SwfMovie::parse("").is_err());
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(SwfMovie::parse("SWF1;explode").is_err());
        assert!(SwfMovie::parse("SWF1;magic=beans").is_err());
    }
}
