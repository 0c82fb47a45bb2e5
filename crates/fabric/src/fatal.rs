//! The protocol-violation funnel: one reviewed place where "this cannot
//! happen unless a protocol invariant is already broken" turns into an
//! abort of the simulation.
//!
//! Hot-path code is `#[cfg_attr(lint, tcc_no_panic)]` — the analyzer's
//! panic-freedom pass fails the build if an `unwrap`/`expect`/`panic!`
//! is reachable from it. Genuine can't-happen branches (a routed packet
//! with no route, a decode of a frame the ready-check just validated)
//! still need *somewhere* to go; that somewhere is here. Funnelling them
//! through one `tcc_panic_ok` function keeps the escape hatch count for
//! protocol violations at one for the whole workspace instead of one
//! per call site, and gives every violation the same greppable prefix. It lives in this crate
//! because every crate that aborts through it (tcc-msglib, tcc-opteron,
//! tcc-firmware, tcc-core) depends on the simulation kernel.

use core::fmt;

/// Abort on a broken protocol invariant. Never returns.
///
/// Call through [`protocol_violation!`](crate::protocol_violation) so the message is formatted
/// lazily at the site. Deliberate panic, reviewed: by the time this is
/// reached, simulator state is inconsistent (a routing table disagrees
/// with the fabric, a frame fails to decode after its ready flag was
/// observed) and continuing would corrupt results silently.
#[cold]
#[inline(never)]
#[cfg_attr(lint, tcc_panic_ok)]
pub fn protocol_violation(args: fmt::Arguments<'_>) -> ! {
    panic!("protocol violation: {args}");
}

/// Format-and-abort sugar over [`fatal::protocol_violation`][self::protocol_violation].
#[macro_export]
macro_rules! protocol_violation {
    ($($arg:tt)*) => {
        $crate::fatal::protocol_violation(core::format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "protocol violation: route miss for node 7")]
    fn funnel_formats_the_site_message() {
        protocol_violation!("route miss for node {}", 7);
    }
}
