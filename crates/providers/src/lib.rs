//! Android-style content providers for the Maxoid reproduction.
//!
//! Provides the provider framework — content [`Uri`]s (including Maxoid's
//! volatile `tmp` URIs), [`ContentValues`] with the paper's `isVolatile`
//! extension, the [`ContentResolver`] with per-URI permission grants — and
//! the three system providers the paper ports onto the COW proxy (§5.3):
//!
//! - [`UserDictionaryProvider`] — pure passive storage; trivial port.
//! - [`DownloadsProvider`] — background fetch worker, notifications,
//!   volatile (incognito) downloads, and delegate request refusal.
//! - [`MediaProvider`] — a hierarchy of user-defined views
//!   (`images`/`audio_meta`/`video`/`audio` over `files`) plus thumbnail
//!   generation that tracks record provenance.
//!
//! All three are one proxy-backed core, [`CowProvider`], each with its own
//! schema, URI routes and services; the core also checks the SQL
//! fragments callers pass before any of them reaches SQL.
//!
//! # Examples
//!
//! ```
//! use maxoid_providers::{Caller, ContentValues, QueryArgs, Uri, UserDictionaryProvider};
//! use maxoid_providers::provider::ContentProvider;
//!
//! let mut dict = UserDictionaryProvider::new();
//! let words = Uri::parse("content://user_dictionary/words").unwrap();
//!
//! // A delegate's insert is confined to its initiator's volatile state.
//! let delegate = Caller::delegate("com.viewer", "com.email");
//! dict.insert(&delegate, &words, &ContentValues::new().put("word", "secret")).unwrap();
//!
//! // Other apps do not see it.
//! let rs = dict.query(&Caller::normal("com.other"), &words, &QueryArgs::default()).unwrap();
//! assert!(rs.rows.is_empty());
//! ```

#![warn(missing_docs)]

pub mod cow;
pub mod downloads;
pub mod locator;
pub mod media;
pub mod provider;
pub mod resolver;
pub mod uri;
pub mod userdict;

pub use cow::CowProvider;
pub use downloads::{DownloadNotification, DownloadRequest, DownloadService, DownloadsProvider};
pub use locator::{FileLocator, SimpleLocator, SystemFiles};
pub use media::{MediaKind, MediaProvider};
pub use provider::{Caller, ContentValues, ProviderError, ProviderResult, QueryArgs, ReadHandle};
pub use resolver::{ContentResolver, ProviderScope};
pub use uri::{Uri, UriError};
pub use userdict::UserDictionaryProvider;
