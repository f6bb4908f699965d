//! A web-service registry — the UDDI stand-in of the paper's application
//! layer.
//!
//! The paper's introduction frames everything around service discovery: a
//! search engine (Seekda) returns *"100 weather forecast providers or 200
//! stock-query answering providers"*, and the skyline machinery picks the
//! best by QoS. [`Registry`] models that world: services carry a name, a
//! provider and a functional [`Category`]; discovery filters by category and
//! hands the matching QoS vectors to the skyline pipeline as a
//! [`Dataset`](crate::Dataset).

use crate::dataset::Dataset;
use crate::generator::{generate_qws, QwsConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::point::Point;

/// Functional categories, after the paper's own examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Weather forecast providers (the paper's first example).
    Weather,
    /// Stock-quote providers (the paper's second example).
    StockQuotes,
    /// Currency conversion.
    CurrencyExchange,
    /// Geocoding / maps.
    Geocoding,
    /// E-mail validation and delivery.
    Email,
    /// SMS gateways.
    Sms,
}

impl Category {
    /// All categories, for enumeration.
    pub const ALL: [Category; 6] = [
        Category::Weather,
        Category::StockQuotes,
        Category::CurrencyExchange,
        Category::Geocoding,
        Category::Email,
        Category::Sms,
    ];

    /// Short label.
    pub fn name(self) -> &'static str {
        match self {
            Category::Weather => "weather",
            Category::StockQuotes => "stock-quotes",
            Category::CurrencyExchange => "currency",
            Category::Geocoding => "geocoding",
            Category::Email => "email",
            Category::Sms => "sms",
        }
    }
}

/// One registered service: identity plus its QoS vector.
#[derive(Debug, Clone)]
pub struct ServiceEntry {
    /// Stable id (matches the QoS point id).
    pub id: u64,
    /// Service display name.
    pub name: String,
    /// Provider organisation.
    pub provider: String,
    /// Functional category.
    pub category: Category,
    /// Oriented QoS vector (lower is better on every attribute).
    pub qos: Point,
}

/// An in-memory service registry.
#[derive(Debug, Clone)]
pub struct Registry {
    entries: Vec<ServiceEntry>,
    dims: usize,
}

impl Registry {
    /// Builds a synthetic registry of `n` services with `dims` QoS
    /// attributes, deterministically from `seed`. Categories and providers
    /// are assigned pseudo-randomly; QoS vectors come from the QWS-like
    /// generator.
    ///
    /// # Examples
    ///
    /// ```
    /// use qws_data::registry::{Category, Registry};
    ///
    /// let registry = Registry::synthetic(500, 4, 42);
    /// let weather = registry.discover(Category::Weather);
    /// assert!(!weather.is_empty());
    /// let data = registry.category_dataset(Category::Weather).unwrap();
    /// assert_eq!(data.len(), weather.len());
    /// ```
    pub fn synthetic(n: usize, dims: usize, seed: u64) -> Self {
        let data = generate_qws(&QwsConfig::new(n, dims).with_seed(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let entries = data
            .points()
            .iter()
            .map(|p| {
                let category = Category::ALL[rng.gen_range(0..Category::ALL.len())];
                let provider = format!("provider-{:03}", rng.gen_range(0..120));
                ServiceEntry {
                    id: p.id(),
                    name: format!("{}-svc-{}", category.name(), p.id()),
                    provider,
                    category,
                    qos: p.clone(),
                }
            })
            .collect();
        Self { entries, dims }
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no services are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// QoS dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// All entries.
    pub fn entries(&self) -> &[ServiceEntry] {
        &self.entries
    }

    /// Looks up a service by id (the skyline pipeline reports ids).
    pub fn get(&self, id: u64) -> Option<&ServiceEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Services in `category` — the paper's "many providers competing for
    /// the similar services" discovery step.
    pub fn discover(&self, category: Category) -> Vec<&ServiceEntry> {
        self.entries
            .iter()
            .filter(|e| e.category == category)
            .collect()
    }

    /// The QoS dataset of one category, ready for a
    /// `mr_skyline::SkylineJob` run. Returns `None` when
    /// the category is empty.
    pub fn category_dataset(&self, category: Category) -> Option<Dataset> {
        let points: Vec<Point> = self
            .discover(category)
            .into_iter()
            .map(|e| e.qos.clone())
            .collect();
        if points.is_empty() {
            None
        } else {
            Some(Dataset::new(
                format!("registry:{}(n={})", category.name(), points.len()),
                points,
            ))
        }
    }

    /// The full registry as one dataset.
    pub fn full_dataset(&self) -> Dataset {
        Dataset::new(
            format!("registry:all(n={})", self.len()),
            self.entries.iter().map(|e| e.qos.clone()).collect(),
        )
    }

    /// Registers a new service, assigning the next free id. Returns the id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        provider: impl Into<String>,
        category: Category,
        qos: Vec<f64>,
    ) -> u64 {
        assert_eq!(qos.len(), self.dims, "QoS vector dimensionality mismatch");
        let id = self.entries.iter().map(|e| e.id).max().map_or(0, |m| m + 1);
        self.entries.push(ServiceEntry {
            id,
            name: name.into(),
            provider: provider.into(),
            category,
            qos: Point::new(id, qos),
        });
        id
    }

    /// Deregisters a service by id. Returns `true` if it existed.
    pub fn deregister(&mut self, id: u64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::synthetic(600, 4, 7)
    }

    #[test]
    fn synthetic_registry_shape() {
        let r = registry();
        assert_eq!(r.len(), 600);
        assert_eq!(r.dims(), 4);
        assert!(!r.is_empty());
        // determinism
        let r2 = Registry::synthetic(600, 4, 7);
        assert_eq!(r.entries()[17].name, r2.entries()[17].name);
        assert_eq!(r.entries()[17].qos.coords(), r2.entries()[17].qos.coords());
    }

    #[test]
    fn every_category_is_populated() {
        let r = registry();
        for c in Category::ALL {
            assert!(!r.discover(c).is_empty(), "{}", c.name());
        }
        let total: usize = Category::ALL.iter().map(|&c| r.discover(c).len()).sum();
        assert_eq!(total, r.len());
    }

    #[test]
    fn category_dataset_matches_discovery() {
        let r = registry();
        let weather = r.discover(Category::Weather);
        let data = r.category_dataset(Category::Weather).expect("non-empty");
        assert_eq!(data.len(), weather.len());
        assert_eq!(data.dim(), 4);
        for (e, p) in weather.iter().zip(data.points()) {
            assert_eq!(e.id, p.id());
        }
    }

    #[test]
    fn full_dataset_covers_everything() {
        let r = registry();
        assert_eq!(r.full_dataset().len(), r.len());
    }

    #[test]
    fn lookup_by_id() {
        let r = registry();
        let e = r.get(42).expect("id 42 exists");
        assert_eq!(e.id, 42);
        assert!(r.get(999_999).is_none());
    }

    #[test]
    fn register_and_deregister() {
        let mut r = registry();
        let id = r.register("acme-weather", "acme", Category::Weather, vec![1.0; 4]);
        assert_eq!(r.len(), 601);
        assert_eq!(r.get(id).unwrap().provider, "acme");
        assert!(r.deregister(id));
        assert!(!r.deregister(id), "double deregister is a no-op");
        assert_eq!(r.len(), 600);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn register_rejects_wrong_dims() {
        let mut r = registry();
        let _ = r.register("bad", "p", Category::Sms, vec![1.0; 3]);
    }

    #[test]
    fn skyline_of_a_category_works_end_to_end() {
        use skyline_algos::seq::naive_skyline_ids;
        let r = registry();
        let data = r
            .category_dataset(Category::StockQuotes)
            .expect("non-empty");
        let sky = naive_skyline_ids(data.points());
        assert!(!sky.is_empty());
        // every skyline id resolves back to a registry entry of the category
        for &id in &sky {
            let e = r.get(id).expect("skyline id resolves");
            assert_eq!(e.category, Category::StockQuotes);
        }
    }
}
